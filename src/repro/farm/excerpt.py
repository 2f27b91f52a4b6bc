"""Schema excerpts on the wire, and foreign installation on arrival.

The export side is a composition of two satellites: the Appendix-A
:func:`~repro.analyzer.namespaces.public_closure` decides *which* facts
a schema exports, and :func:`~repro.datalog.snapshot.export_excerpt`
detaches them from the home shard's interned store.  The wire form
reuses the persistence layer's tagged value encoding
(:func:`~repro.gom.persistence.encode_value`), so ids round-trip the
same way they do in the WAL and the snapshot file.

The install side runs on the importing shard, inside an ordinary
WAL-logged evolution session: foreign facts land in the main EDB (the
visibility rules then treat them exactly like local ones), a
``ForeignSchema`` provenance fact records ``(home shard, home epoch)``,
and EES checks the merged extension.  Refreshing an already-installed
schema replaces its closure *conservatively*: facts also reachable
from another installed foreign schema's closure are protected from
removal, because two schemas homed on one shard may share base types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.analyzer.namespaces import public_closure
from repro.datalog.snapshot import RelationExcerpt, export_excerpt
from repro.datalog.terms import Atom
from repro.gom.ids import Id
from repro.gom.persistence import decode_value, encode_value

__all__ = ["ForeignInstallPlan", "atoms_from_wire", "atoms_to_wire",
           "excerpt_from_wire", "excerpt_to_wire", "foreign_entries",
           "install_foreign_schema", "plan_foreign_install",
           "schema_excerpt"]


def schema_excerpt(model, sid: Id) -> RelationExcerpt:
    """Detach the public closure of *sid* from *model*'s fact store."""
    selection: Dict[str, List[Atom]] = {}
    for atom in public_closure(model, sid):
        selection.setdefault(atom.pred, []).append(atom)
    return export_excerpt(model.db.edb, selection=selection)


# -- wire form ---------------------------------------------------------------


def excerpt_to_wire(excerpt: RelationExcerpt) -> Dict[str, object]:
    """A JSON-safe form of an excerpt (codes + tagged value slice)."""
    return {
        "rows": {pred: [list(codes) for codes in rows]
                 for pred, rows in excerpt.rows.items()},
        "values": {str(code): encode_value(value)
                   for code, value in excerpt.values.items()},
    }


def excerpt_from_wire(payload: Dict[str, object]) -> RelationExcerpt:
    """Invert :func:`excerpt_to_wire`."""
    return RelationExcerpt(
        rows={pred: [tuple(codes) for codes in rows]
              for pred, rows in payload["rows"].items()},
        values={int(code): decode_value(value)
                for code, value in payload["values"].items()},
    )


def atoms_to_wire(atoms: Sequence[Atom]) -> List[List[object]]:
    """Ground atoms as WAL-record-form ``[pred, [args…]]`` lists."""
    from repro.gom.persistence import encode_atom
    return [encode_atom(atom) for atom in atoms]


def atoms_from_wire(payload: Sequence[List[object]]) -> List[Atom]:
    """Invert :func:`atoms_to_wire`."""
    from repro.gom.persistence import decode_atom
    return [decode_atom(item) for item in payload]


# -- foreign installation ----------------------------------------------------


@dataclass(frozen=True)
class ForeignInstallPlan:
    """The +/- delta installing (or refreshing) one foreign schema."""

    sid: Id
    additions: List[Atom]
    deletions: List[Atom]
    protected: int


def foreign_entries(model) -> List[Tuple[Id, int, int]]:
    """The installed ``(schemaid, home shard, home epoch)`` triples."""
    return sorted(
        ((fact.args[0], fact.args[1], fact.args[2])
         for fact in model.db.facts("ForeignSchema")),
        key=repr,
    )


def plan_foreign_install(model, sid: Id, atoms: Sequence[Atom],
                         home_shard: int, home_epoch: int
                         ) -> ForeignInstallPlan:
    """Compute the session delta that installs *atoms* as schema *sid*.

    A first install is pure additions.  A refresh removes the facts of
    the previous closure that the new one dropped — except facts still
    reachable from *another* installed foreign schema's closure (two
    schemas exported by one home shard may share supertypes or domain
    types; removing a shared fact would tear the other import).  The
    provenance fact is replaced to carry the new home epoch.
    """
    new_atoms: Set[Atom] = set(atoms)
    old_atoms: Set[Atom] = set()
    old_entries: List[Atom] = list(
        model.db.matching(Atom("ForeignSchema", (sid, None, None))))
    if old_entries:
        old_atoms = set(public_closure(model, sid))
    protected: Set[Atom] = set()
    for entry in model.db.facts("ForeignSchema"):
        if entry.args[0] != sid:
            protected.update(public_closure(model, entry.args[0]))
    provenance = Atom("ForeignSchema", (sid, home_shard, home_epoch))
    deletions = sorted(old_atoms - new_atoms - protected, key=repr)
    deletions.extend(entry for entry in old_entries if entry != provenance)
    # Only facts actually absent go in: a refresh whose closure did not
    # change (or overlaps another import's) then plans an empty delta.
    additions = sorted(
        (atom for atom in new_atoms
         if next(iter(model.db.matching(atom)), None) is None),
        key=repr)
    if provenance not in old_entries:
        additions.append(provenance)
    return ForeignInstallPlan(sid=sid, additions=additions,
                              deletions=deletions,
                              protected=len(protected & old_atoms))


def install_foreign_schema(manager, sid: Id, atoms: Sequence[Atom],
                           home_shard: int, home_epoch: int,
                           check_mode: str = "delta") -> int:
    """Run the install/refresh session on *manager*; returns its epoch.

    The session is WAL-logged and EES-checked like any evolution
    session, so a crash mid-install recovers to either the previous
    state or the fully-installed one, and an excerpt that would break
    the merged extension's consistency is rolled back (the
    :class:`~repro.errors.InconsistentSchemaError` propagates).
    """
    plan = plan_foreign_install(manager.model, sid, atoms,
                                home_shard, home_epoch)
    if not plan.additions and not plan.deletions:
        # Unchanged closure at an unchanged epoch: no session, no WAL
        # record, no epoch bump.
        return manager.model.epoch
    session = manager.begin_session(check_mode=check_mode)
    try:
        session.modify(additions=plan.additions, deletions=plan.deletions)
        session.commit()
    except Exception:
        if session.active:
            session.rollback()
        raise
    return manager.model.epoch
