"""One shard: a :class:`~repro.node.Node` that validates session plans.

The node supplies the socket, the envelope and the shared kinds; a
shard adds its disjoint id stride and the farm's kinds.  Sessions
arrive as fuzzer-format plans (:class:`~repro.fuzz.history.SessionPlan`)
and replay through a persistent :class:`~repro.fuzz.replay.Replayer`,
whose handles survive across sessions — create schema ``s0`` in one
session and evolve ``@s0`` in the next, or ``bind`` a handle to an
existing schema by name.  Every kind here touches the live model, so
each runs under the node's write lock.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import InconsistentSchemaError
from repro.farm import FARM_FEATURES, ID_STRIDE
from repro.farm.excerpt import (
    excerpt_from_wire,
    excerpt_to_wire,
    install_foreign_schema,
    schema_excerpt,
)
from repro.fuzz.history import SessionPlan
from repro.fuzz.replay import Replayer
from repro.gom.ids import KINDS, Id
from repro.gom.persistence import decode_value, encode_value
from repro.node import Node, NodeError, resolve_schema

__all__ = ["ShardWorker"]


class ShardWorker(Node):
    """The farm's handlers around one shard's schema manager."""

    WRITES = Node.WRITES | {"bind", "session", "export_excerpt",
                            "install_foreign"}

    def __init__(self, directory: str, shard: int,
                 features=FARM_FEATURES) -> None:
        super().__init__(directory, features=features)
        self.shard = shard
        # Claim the shard's id stride.  resume() is monotonic-max, so a
        # recovery that already advanced past the stride base wins.
        for kind in KINDS:
            self.model.ids.resume(kind, shard * ID_STRIDE + 1)
        self.replayer = Replayer(self.manager)
        self.metrics.gauge("farm.shard").set(shard)

    def _handle_bind(self, message) -> Dict[str, object]:
        """Attach a replay handle to a pre-existing entity."""
        handle, target = message["handle"], message["target"]
        kind = target.get("kind")
        resolved: Optional[Id] = None
        if kind == "schema":
            resolved = resolve_schema(self.model,
                                      target.get("id") or target.get("name"))
        elif kind == "type":
            sid = resolve_schema(self.model, target.get("schema"))
            if sid is not None:
                resolved = self.model.type_id(target["name"], sid)
        elif kind == "id":
            value = decode_value(target["id"])
            resolved = value if isinstance(value, Id) else None
        if resolved is None:
            raise NodeError(
                f"cannot bind {handle!r}: unresolved target {target!r}")
        self.replayer.env.bind(handle, resolved)
        return {"bound": encode_value(resolved)}

    def _handle_session(self, message) -> Dict[str, object]:
        plan = SessionPlan.from_dict(message["plan"])
        session = self.manager.begin_session(
            check_mode=message.get("check_mode", "delta"))
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
        self.metrics.counter("farm.sessions_committed").inc()
        return {"committed": True, "applied": applied, "skipped": skipped}

    def _handle_export_excerpt(self, message) -> Dict[str, object]:
        sid = resolve_schema(self.model, message["schema"])
        if sid is None:
            raise NodeError(
                f"no schema {message['schema']!r} on shard {self.shard}")
        excerpt = schema_excerpt(self.model, sid)
        return {"sid": encode_value(sid),
                "excerpt": excerpt_to_wire(excerpt),
                "facts": excerpt.fact_count}

    def _handle_install_foreign(self, message) -> Dict[str, object]:
        excerpt = excerpt_from_wire(message["excerpt"])
        atoms = list(excerpt.decoded())
        epoch = install_foreign_schema(
            self.manager, decode_value(message["sid"]), atoms,
            home_shard=message["home_shard"],
            home_epoch=message["home_epoch"],
            check_mode=message.get("check_mode", "delta"))
        self.metrics.counter("farm.foreign_installs").inc()
        return {"installed": len(atoms), "install_epoch": epoch}
