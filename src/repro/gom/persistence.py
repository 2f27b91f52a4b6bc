"""Persistence of the Database Model (Appendix A.2).

"A schema is always persistent, and with it, all its schema components."
The deductive database *is* the schema manager's entire state, so
persistence is serializing the base-predicate extensions (plus the id
counters, so evolution continues seamlessly after a reload).  Rules and
constraints are not stored: they come from the feature modules, i.e.
from the schema manager's *definition*, not its data — the stored header
records which features were enabled so the loader can re-assemble the
identical manager.

The format is a single JSON document, versioned, with every value
tagged so ids, numbers, strings, and booleans round-trip exactly.

:func:`save_to_file` is atomic and durable: the document is written to a
temporary file in the same directory, flushed, fsync'd, and renamed over
the target with :func:`os.replace`, so a crash at any instant leaves
either the old snapshot or the new one — never a torn JSON document.
Every boundary is a named crash point for the fault-injection harness
(see :mod:`repro.storage.faults`).
"""

from __future__ import annotations

import os
import json
from typing import Dict, IO, List, Optional, Union

from repro.errors import GomModelError
from repro.datalog.terms import Atom
from repro.gom.ids import Id

FORMAT_VERSION = 1


def encode_value(value: object) -> object:
    """Encode one fact argument as a JSON-safe tagged value."""
    if isinstance(value, Id):
        if value.number is not None:
            return {"$id": [value.kind, value.number]}
        return {"$idname": [value.kind, value.label]}
    if isinstance(value, bool) or isinstance(value, (int, float, str)):
        return value
    if value is None:
        return None
    raise GomModelError(
        f"cannot persist value {value!r} of type {type(value).__name__}")


def decode_value(value: object) -> object:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if "$id" in value:
            kind, number = value["$id"]
            return Id(kind, number=number)
        if "$idname" in value:
            kind, label = value["$idname"]
            return Id(kind, label=label)
        raise GomModelError(f"unknown tagged value {value!r}")
    return value


def encode_atom(fact: Atom) -> List[object]:
    """Encode one ground fact as ``[pred, [args…]]`` (WAL record form)."""
    return [fact.pred, [encode_value(cell) for cell in fact.args]]


def decode_atom(payload: List[object]) -> Atom:
    """Invert :func:`encode_atom`."""
    pred, args = payload
    return Atom(pred, [decode_value(cell) for cell in args])


def dump_model(model, stream: Optional[IO[str]] = None) -> str:
    """Serialize a :class:`GomDatabase` to JSON text (and *stream*)."""
    facts: Dict[str, List[List[object]]] = {}
    for pred in sorted(model.db.edb.predicates()):
        rows = sorted(
            ([encode_value(cell) for cell in fact.args]
             for fact in model.db.edb.facts(pred)),
            key=repr,
        )
        if rows:
            facts[pred] = rows
    document = {
        "format": FORMAT_VERSION,
        "features": list(model.features),
        "next_ids": model.ids.next_numbers(),
        "facts": facts,
    }
    text = json.dumps(document, indent=1, sort_keys=True)
    if stream is not None:
        stream.write(text)
    return text


def load_model(source: Union[str, IO[str]]):
    """Re-assemble a :class:`GomDatabase` from :func:`dump_model` output.

    The manager is rebuilt from its feature list (rules and constraints
    come from the feature registry), then the stored extensions replace
    the fresh built-ins, and the id counters resume where they stopped.
    """
    from repro.gom.model import GomDatabase

    text = source if isinstance(source, str) else source.read()
    document = json.loads(text)
    if document.get("format") != FORMAT_VERSION:
        raise GomModelError(
            f"unsupported persistence format {document.get('format')!r}")
    model = GomDatabase(features=tuple(document["features"]))
    model.db.edb.clear()
    changed = set()
    for pred, rows in document["facts"].items():
        if not model.db.edb.is_declared(pred):
            raise GomModelError(
                f"stored predicate {pred!r} is not declared by features "
                f"{document['features']}")
        for row in rows:
            model.db.edb.add(Atom(pred, [decode_value(cell)
                                         for cell in row]))
        changed.add(pred)
    model.db.invalidate(changed)
    for kind, next_number in document["next_ids"].items():
        model.ids.resume(kind, next_number)
    return model


def fsync_directory(path: str) -> None:
    """Make a directory entry (a rename, a create) durable, best effort.

    Not every platform lets a directory be opened for fsync; failure to
    harden the *entry* never loses the file's *content*, so errors are
    swallowed deliberately.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_document_atomic(text: str, path: str, injector=None,
                         durable: bool = True,
                         points: str = "snapshot") -> None:
    """Write *text* to *path* atomically (temp file + ``os.replace``).

    With *durable* (the default) the temporary file is fsync'd before
    the rename **and the parent directory entry afterwards** — an
    ``os.replace`` whose directory was never fsync'd can itself be lost
    on power failure, silently reviving the old document.  *points*
    prefixes the named crash boundaries (``snapshot.*`` for model
    saves, ``manifest.*`` for the farm config); *injector* threads the
    fault seam through every one of them.
    """
    from repro.storage.faults import CrashPoint, NO_FAULTS
    if injector is None:
        injector = NO_FAULTS
    tmp_path = path + ".tmp"
    injector.fire(f"{points}.before_write")
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            injector.fire(
                f"{points}.torn_write",
                before_crash=lambda: (handle.write(text[:len(text) // 2]),
                                      handle.flush()))
            handle.write(text)
            injector.fire(f"{points}.after_write")
            handle.flush()
            if durable:
                injector.fire(f"{points}.before_fsync")
                os.fsync(handle.fileno())
        injector.fire(f"{points}.before_replace")
        os.replace(tmp_path, path)
    except CrashPoint:
        # A real crash cannot clean up, and recovery must cope with the
        # leftover temp file, so injected crashes keep it for the tests.
        raise
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    injector.fire(f"{points}.after_replace")
    if durable:
        fsync_directory(os.path.dirname(os.path.abspath(path)))


def save_json_atomic(payload: Dict[str, object], path: str, injector=None,
                     durable: bool = True, points: str = "manifest") -> None:
    """Persist one JSON document atomically and durably (see above).

    The write path of small configuration manifests (the farm's
    ``farm.json``): losing one to a half-written file or an un-fsync'd
    rename would re-create a farm with the wrong shard count.
    """
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    save_document_atomic(text, path, injector=injector, durable=durable,
                         points=points)


def save_to_file(model, path: str, injector=None, durable: bool = True) -> None:
    """Persist a model to *path* atomically (temp file + ``os.replace``).

    With *durable* (the default) the temporary file is fsync'd before
    the rename and the directory entry afterwards, so the new snapshot
    survives a power cut as a unit.  *injector* threads the fault seam
    through every boundary; production callers leave it None.
    """
    save_document_atomic(dump_model(model), path, injector=injector,
                         durable=durable, points="snapshot")


def load_from_file(path: str):
    """Load a model from *path*."""
    with open(path, "r", encoding="utf-8") as handle:
        return load_model(handle)
