"""One shard worker: a durable schema manager behind a request pipe.

``worker_main`` is the child-process entry point.  It opens (or
recovers) the shard's :class:`~repro.manager.SchemaManager` from the
shard's own WAL directory, claims the shard's disjoint id stride,
enables snapshot publication, and then serves framed JSON requests
(:mod:`repro.wire`) until told to shut down.  Every reply
carries the shard index and the shard's current epoch, so the farm
client maintains per-shard epoch tokens for free.

Writes arrive as fuzzer-format session plans
(:class:`~repro.fuzz.history.SessionPlan`) and replay through a
persistent :class:`~repro.fuzz.replay.Replayer`, whose handle
environment survives across sessions — a farm client can create schema
``s0`` in one session and evolve ``@s0`` in the next, or ``bind`` a
handle to a pre-existing schema by name.  Reads run against the
published snapshot, never the live model, exactly like
:class:`~repro.service.SchemaService` readers.
"""

from __future__ import annotations

import os
import traceback
from typing import Dict, Optional

from repro.errors import InconsistentSchemaError, ReproError
from repro.farm import FARM_FEATURES, ID_STRIDE
from repro.farm.excerpt import (
    excerpt_from_wire,
    excerpt_to_wire,
    foreign_entries,
    install_foreign_schema,
    schema_excerpt,
)
from repro.analyzer.namespaces import (
    model_schema_name,
    resolve_schema_path,
    resolve_visible_type,
    visible_components,
)
from repro.fuzz.history import SessionPlan
from repro.fuzz.replay import Replayer
from repro.gom.ids import KINDS, Id
from repro.gom.persistence import decode_value, encode_value
from repro.manager import SchemaManager
from repro.obs import Observability
from repro.service.stress import edb_digest
from repro.wire import WorkerDied, recv_message, send_message

__all__ = ["ShardWorker", "worker_main"]


class ShardWorker:
    """The request dispatcher around one shard's schema manager."""

    def __init__(self, shard: int, directory: str,
                 features=FARM_FEATURES, metrics: bool = True) -> None:
        self.shard = shard
        self.directory = directory
        obs = Observability.create(metrics=True) if metrics else None
        self.manager = SchemaManager.open(directory, features=features,
                                          obs=obs)
        # Claim the shard's id stride.  resume() is monotonic-max, so a
        # recovery that already advanced past the stride base wins.
        for kind in KINDS:
            self.manager.model.ids.resume(kind, shard * ID_STRIDE + 1)
        self.manager.model.enable_snapshots()
        self.replayer = Replayer(self.manager)
        self.obs = self.manager.obs
        if self.obs.enabled:
            self.obs.metrics.gauge("farm.shard").set(shard)

    # -- helpers ---------------------------------------------------------------

    @property
    def model(self):
        return self.manager.model

    @staticmethod
    def _resolve_schema(view, ref: object) -> Optional[Id]:
        """A schema reference on the live model or a snapshot: an
        encoded id, a name, or an absolute path."""
        if isinstance(ref, dict):
            sid = decode_value(ref)
            return sid if isinstance(sid, Id) else None
        if isinstance(ref, str) and ref.startswith("/"):
            return resolve_schema_path(view, ref)
        if isinstance(ref, str):
            return view.schema_id(ref)
        return None

    # -- request handlers ------------------------------------------------------

    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        kind = request.get("kind")
        handler = getattr(self, f"_handle_{kind}", None)
        if handler is None:
            return self._error(f"unknown request kind {kind!r}", "Protocol")
        if self.obs.enabled:
            self.obs.metrics.counter(f"farm.requests[{kind}]").inc()
        try:
            reply = handler(request)
        except InconsistentSchemaError as exc:
            return self._error(
                str(exc), type(exc).__name__,
                violations=[v.constraint.name for v in exc.violations])
        except ReproError as exc:
            return self._error(str(exc), type(exc).__name__)
        except Exception as exc:  # pragma: no cover - defensive envelope
            return self._error(
                f"{exc!r}\n{traceback.format_exc(limit=5)}",
                type(exc).__name__)
        reply.setdefault("ok", True)
        reply["shard"] = self.shard
        reply["epoch"] = self.model.epoch
        return reply

    def _error(self, message: str, error_type: str,
               **extra: object) -> Dict[str, object]:
        reply = {"ok": False, "error": message, "error_type": error_type,
                 "shard": self.shard, "epoch": self.model.epoch}
        reply.update(extra)
        return reply

    def _handle_ping(self, request) -> Dict[str, object]:
        return {"pid": os.getpid()}

    def _handle_epoch(self, request) -> Dict[str, object]:
        return {}

    def _handle_define(self, request) -> Dict[str, object]:
        result = self.manager.define(
            request["source"], check_mode=request.get("check_mode", "delta"))
        return {"schemas": {name: encode_value(sid)
                            for name, sid in result.schema_ids.items()}}

    def _handle_bind(self, request) -> Dict[str, object]:
        """Attach a replay handle to a pre-existing entity."""
        handle = request["handle"]
        target = request["target"]
        kind = target.get("kind")
        resolved: Optional[Id] = None
        if kind == "schema":
            resolved = self._resolve_schema(
                self.model, target.get("id") or target.get("name"))
        elif kind == "type":
            sid = self._resolve_schema(self.model, target.get("schema"))
            if sid is not None:
                resolved = self.model.type_id(target["name"], sid)
        elif kind == "id":
            value = decode_value(target["id"])
            resolved = value if isinstance(value, Id) else None
        if resolved is None:
            return self._error(
                f"cannot bind {handle!r}: unresolved target {target!r}",
                "Bind")
        self.replayer.env.bind(handle, resolved)
        return {"bound": encode_value(resolved)}

    def _handle_session(self, request) -> Dict[str, object]:
        plan = SessionPlan.from_dict(request["plan"])
        check_mode = request.get("check_mode", "delta")
        session = self.manager.begin_session(check_mode=check_mode)
        applied = skipped = 0
        try:
            for op in plan.ops:
                if self.replayer.apply(session, op):
                    applied += 1
                else:
                    skipped += 1
            if plan.outcome == "rollback":
                session.rollback()
                return {"committed": False, "rolled_back": True,
                        "applied": applied, "skipped": skipped}
            session.commit()
        except InconsistentSchemaError as exc:
            session.rollback()
            return {"committed": False, "rolled_back": True,
                    "applied": applied, "skipped": skipped,
                    "violations": [v.constraint.name for v in exc.violations]}
        except Exception:
            if session.active:
                session.rollback()
            raise
        if self.obs.enabled:
            self.obs.metrics.counter("farm.sessions_committed").inc()
        return {"committed": True, "applied": applied, "skipped": skipped}

    def _handle_read(self, request) -> Dict[str, object]:
        """A name-level read against the published snapshot."""
        snapshot = self.model.snapshot()
        op = request.get("op")
        params = request.get("params", {})
        if op == "schema_id":
            sid = self._resolve_schema(self.model, params["schema"])
            result = encode_value(sid) if sid is not None else None
        elif op == "visible":
            sid = self._resolve_schema(snapshot, params["schema"])
            entries = visible_components(snapshot, sid,
                                         params.get("component", "type"),
                                         params.get("name"))
            result = [[visible,
                       model_schema_name(snapshot, origin),
                       original]
                      for visible, origin, original in entries]
        elif op == "declarations":
            sid = self._resolve_schema(snapshot, params["schema"])
            tid = self._type_on(snapshot, sid, params["type"])
            result = None
            if tid is not None:
                result = sorted(
                    [opname,
                     [snapshot.type_name(arg)
                      for arg in snapshot.arg_types(did)],
                     snapshot.type_name(fact_result)]
                    for did, opname, fact_result
                    in self._decl_rows(snapshot, tid))
        elif op == "attributes":
            sid = self._resolve_schema(snapshot, params["schema"])
            tid = self._type_on(snapshot, sid, params["type"])
            result = None
            if tid is not None:
                result = sorted(
                    [name, snapshot.type_name(domain)]
                    for name, domain in snapshot.attributes(tid))
        elif op == "count":
            result = snapshot.db.count(params["pred"])
        else:
            return self._error(f"unknown read op {op!r}", "Protocol")
        return {"result": result, "read_epoch": snapshot.epoch}

    @staticmethod
    def _type_on(snapshot, sid: Optional[Id], name: str) -> Optional[Id]:
        """A type by name: the schema's own first, then the visible ones
        (imports and inherited subschema components)."""
        if sid is None:
            return None
        tid = snapshot.type_id(name, sid)
        if tid is not None:
            return tid
        return resolve_visible_type(snapshot, sid, name)

    @staticmethod
    def _decl_rows(snapshot, tid: Id):
        from repro.datalog.terms import Atom
        for fact in snapshot.db.matching(Atom("Decl", (None, tid, None,
                                                       None))):
            yield fact.args[0], fact.args[2], fact.args[3]

    def _handle_export_excerpt(self, request) -> Dict[str, object]:
        sid = self._resolve_schema(self.model, request["schema"])
        if sid is None:
            return self._error(
                f"no schema {request['schema']!r} on shard {self.shard}",
                "Routing")
        excerpt = schema_excerpt(self.model, sid)
        return {"sid": encode_value(sid),
                "excerpt": excerpt_to_wire(excerpt),
                "facts": excerpt.fact_count}

    def _handle_install_foreign(self, request) -> Dict[str, object]:
        excerpt = excerpt_from_wire(request["excerpt"])
        sid = decode_value(request["sid"])
        atoms = list(excerpt.decoded())
        epoch = install_foreign_schema(
            self.manager, sid, atoms,
            home_shard=request["home_shard"],
            home_epoch=request["home_epoch"],
            check_mode=request.get("check_mode", "delta"))
        if self.obs.enabled:
            self.obs.metrics.counter("farm.foreign_installs").inc()
        return {"installed": len(atoms), "install_epoch": epoch}

    def _handle_foreign(self, request) -> Dict[str, object]:
        return {"entries": [[encode_value(sid), shard, epoch]
                            for sid, shard, epoch
                            in foreign_entries(self.model)]}

    def _handle_digest(self, request) -> Dict[str, object]:
        return {"digest": edb_digest(self.model.db)}

    def _handle_metrics(self, request) -> Dict[str, object]:
        if not self.obs.enabled:
            return {"metrics": {}}
        return {"metrics": self.obs.metrics.snapshot()}

    def _handle_recovery(self, request) -> Dict[str, object]:
        report = self.manager.recovery
        if report is None:
            return {"recovery": None}
        return {"recovery": {key: value for key, value in vars(report).items()
                             if key not in ("directory", "stats")}}

    def _handle_checkpoint(self, request) -> Dict[str, object]:
        self.manager.checkpoint()
        return {}

    def _handle_check(self, request) -> Dict[str, object]:
        report = self.model.snapshot().check()
        return {"consistent": report.consistent,
                "violations": [v.constraint.name for v in report.violations]}

    def close(self) -> None:
        self.manager.close()


def worker_main(conn, shard: int, directory: str,
                features=FARM_FEATURES, metrics: bool = True) -> None:
    """The child process: serve requests until ``shutdown`` or hangup."""
    worker = ShardWorker(shard, directory, features=features,
                         metrics=metrics)
    try:
        send_message(conn, {"ok": True, "kind": "ready", "shard": shard,
                            "epoch": worker.model.epoch,
                            "pid": os.getpid()})
        while True:
            try:
                request = recv_message(conn)
            except WorkerDied:
                break  # the farm went away; leave the WAL committed
            if request.get("kind") == "shutdown":
                send_message(conn, {"ok": True, "shard": shard,
                                    "epoch": worker.model.epoch})
                break
            send_message(conn, worker.handle(request))
    finally:
        worker.close()
        conn.close()
