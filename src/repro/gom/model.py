"""Assembling the schema manager's deductive database from features.

This module realizes the paper's flexibility claim concretely: the GOM
schema model is a set of *feature modules*, each contributing base
predicates, rules, and constraints as declarative text.  Enabling the
versioning and fashion extensions of §4.1 is literally registering two
more modules — the paper's "simple keyboard exercise [that] can be
performed within an hour".  Experiment E6 counts exactly what each module
contributes.

:class:`GomDatabase` wires a :class:`~repro.datalog.engine.DeductiveDatabase`
with a :class:`~repro.datalog.checker.ConsistencyChecker` and a
:class:`~repro.datalog.repair.RepairGenerator`, seeds the built-in sorts,
and exposes the ``modify`` surface the Consistency Control builds on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.concurrency import WriterLock
from repro.errors import DuplicateFeatureError, SessionError, UnknownFeatureError
from repro.datalog.checker import CheckReport, ConsistencyChecker
from repro.datalog.constraints import (
    Constraint,
    key_constraint,
    reference_constraint,
)
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.facts import PredicateDecl
from repro.datalog.parser import parse_program
from repro.datalog.repair import RepairGenerator
from repro.datalog.terms import Atom
from repro.gom import builtins as gom_builtins
from repro.gom.ids import ANY_TYPE, Id, IdFactory
from repro.gom import predicates as preds
from repro.gom import rulesets
from repro.gom.constraints_core import (
    CORE_CONSTRAINTS,
    SINGLE_INHERITANCE_CONSTRAINTS,
)
from repro.gom.constraints_overloading import (
    OVERLOADING_CONSTRAINTS,
    OVERLOADING_RULES,
)
from repro.gom.constraints_fashion import FASHION_CONSTRAINTS
from repro.gom.constraints_object import OBJECTBASE_CONSTRAINTS
from repro.gom.constraints_versioning import VERSIONING_CONSTRAINTS
from repro.obs import NOOP_OBS


@dataclass(frozen=True)
class FeatureModule:
    """One pluggable piece of the schema manager's data model.

    ``removes_constraints`` lists constraint names the feature *retracts*
    from the consistency definition — the paper's §2.1 contemplates not
    only adding but changing the definition of consistency ("changes to
    the data model like allowing overloading are typical examples"), and
    allowing overloading means dropping a uniqueness constraint.
    """

    name: str
    predicates: Tuple[PredicateDecl, ...] = ()
    rules_text: str = ""
    constraints_text: str = ""
    removes_constraints: Tuple[str, ...] = ()
    requires: Tuple[str, ...] = ()
    doc: str = ""


@dataclass(frozen=True)
class FeatureContribution:
    """What enabling one feature actually added (experiment E6)."""

    feature: str
    predicates: int
    rules: int
    constraints: int
    generated_constraints: int  # auto-generated key / reference constraints
    removed_constraints: int = 0

    @property
    def total_definitions(self) -> int:
        return (self.predicates + self.rules + self.constraints
                + self.generated_constraints + self.removed_constraints)


_REGISTRY: Dict[str, FeatureModule] = {}


def register_feature(feature: FeatureModule) -> None:
    """Add a feature to the global registry (developer extension point)."""
    if feature.name in _REGISTRY:
        raise DuplicateFeatureError(f"feature {feature.name} already registered")
    _REGISTRY[feature.name] = feature


def available_features() -> List[str]:
    """Names of all registered features."""
    return sorted(_REGISTRY)


def get_feature(name: str) -> FeatureModule:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFeatureError(
            f"unknown feature {name!r}; available: {', '.join(available_features())}"
        ) from None


register_feature(FeatureModule(
    name="core",
    predicates=preds.CORE_PREDICATES,
    rules_text=rulesets.CORE_RULES,
    constraints_text=CORE_CONSTRAINTS,
    doc="the core GOM schema model of §3.2/§3.3",
))
register_feature(FeatureModule(
    name="objectbase",
    predicates=preds.OBJECTBASE_PREDICATES,
    constraints_text=OBJECTBASE_CONSTRAINTS,
    requires=("core",),
    doc="the object-base model and schema/object consistency of §3.4",
))
register_feature(FeatureModule(
    name="versioning",
    predicates=preds.VERSIONING_PREDICATES,
    rules_text=rulesets.VERSIONING_RULES,
    constraints_text=VERSIONING_CONSTRAINTS,
    requires=("core",),
    doc="schema/type version graphs of §4.1",
))
register_feature(FeatureModule(
    name="fashion",
    predicates=preds.FASHION_PREDICATES,
    constraints_text=FASHION_CONSTRAINTS,
    requires=("core", "versioning"),
    doc="masking via the fashion construct of §4.1",
))
register_feature(FeatureModule(
    name="single_inheritance",
    constraints_text=SINGLE_INHERITANCE_CONSTRAINTS,
    requires=("core",),
    doc="the §2.1 consistency redefinition: restrain to single inheritance",
))
register_feature(FeatureModule(
    name="overloading",
    rules_text=OVERLOADING_RULES,
    constraints_text=OVERLOADING_CONSTRAINTS,
    removes_constraints=("op_name_unique_per_type",),
    requires=("core",),
    doc="the §2.1 data-model change example: allow operator overloading",
))

DEFAULT_FEATURES: Tuple[str, ...] = ("core", "objectbase")


class SchemaReadMixin:
    """The shared read surface over a deductive schema database.

    Every method here needs only ``self.db`` answering the engine's read
    API (``matching`` / ``contains`` / ``is_base``), so the same lookups
    serve both the live :class:`GomDatabase` and immutable
    :class:`SchemaSnapshot` instances handed to concurrent readers.
    """

    db: object  # a DeductiveDatabase or SnapshotDatabase

    def schema_id(self, name: str) -> Optional[Id]:
        for fact in self.db.matching(Atom("Schema", (None, name))):
            return fact.args[0]
        return None

    def type_id(self, name: str, schema: Optional[Id] = None) -> Optional[Id]:
        """Resolve a type name, optionally within one schema.

        Built-in sort names resolve without a schema qualifier.
        """
        builtin = gom_builtins.builtin_type(name)
        if builtin is not None:
            return builtin
        pattern = Atom("Type", (None, name, schema))
        for fact in self.db.matching(pattern):
            return fact.args[0]
        return None

    def type_name(self, tid: Id) -> Optional[str]:
        for fact in self.db.matching(Atom("Type", (tid, None, None))):
            return fact.args[1]
        return None

    def schema_of_type(self, tid: Id) -> Optional[Id]:
        for fact in self.db.matching(Atom("Type", (tid, None, None))):
            return fact.args[2]
        return None

    def attributes(self, tid: Id, inherited: bool = True) -> List[Tuple[str, Id]]:
        """(name, domain) pairs of a type's attributes."""
        pred = "Attr_i" if inherited else "Attr"
        return sorted(
            (fact.args[1], fact.args[2])
            for fact in self.db.matching(Atom(pred, (tid, None, None)))
        )

    def declarations(self, tid: Id, inherited: bool = True
                     ) -> List[Tuple[Id, str, Id]]:
        """(declid, opname, result) triples visible at a type."""
        pred = "Decl_i" if inherited else "Decl"
        return sorted(
            (fact.args[0], fact.args[2], fact.args[3])
            for fact in self.db.matching(Atom(pred, (None, tid, None, None)))
        )

    def decl_id(self, tid: Id, opname: str,
                inherited: bool = True) -> Optional[Id]:
        pred = "Decl_i" if inherited else "Decl"
        for fact in self.db.matching(Atom(pred, (None, tid, opname, None))):
            return fact.args[0]
        return None

    def decl_candidates(self, tid: Id, opname: str,
                        inherited: bool = True) -> List[Id]:
        """All declarations of *opname* visible at *tid* (with the
        ``overloading`` feature there can be several)."""
        pred = "Decl_i" if inherited else "Decl"
        return sorted(
            fact.args[0]
            for fact in self.db.matching(Atom(pred, (None, tid, opname,
                                                     None)))
        )

    def resolve_operation(self, tid: Id, opname: str,
                          nargs: Optional[int] = None) -> Optional[Id]:
        """Resolve a call of *opname* on *tid*, arity-aware.

        With a unique candidate the arity is not enforced here (the
        interpreter checks it at invocation); with several (overloading)
        the argument count selects the declaration.
        """
        candidates = self.decl_candidates(tid, opname)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        if nargs is None:
            return candidates[0]
        by_arity = [did for did in candidates
                    if len(self.arg_types(did)) == nargs]
        if len(by_arity) == 1:
            return by_arity[0]
        if by_arity:
            return by_arity[0]  # ambiguous; deterministic first
        return None

    def arg_types(self, did: Id) -> List[Id]:
        """Argument types of a declaration, in argument order."""
        rows = sorted(
            (fact.args[1], fact.args[2])
            for fact in self.db.matching(Atom("ArgDecl", (did, None, None)))
        )
        return [tid for _number, tid in rows]

    def code_for(self, did: Id) -> Optional[Tuple[Id, str]]:
        """(code id, code text) implementing a declaration, if any."""
        for fact in self.db.matching(Atom("Code", (None, None, did))):
            return fact.args[0], fact.args[1]
        return None

    def supertypes(self, tid: Id, transitive: bool = False) -> List[Id]:
        pred = "SubTypRel_t" if transitive else "SubTypRel"
        return sorted(
            fact.args[1] for fact in self.db.matching(Atom(pred, (tid, None)))
        )

    def is_subtype(self, sub: Id, sup: Id) -> bool:
        """Reflexive-transitive subtype test."""
        if sub == sup:
            return True
        return self.db.contains(Atom("SubTypRel_t", (sub, sup)))

    def phrep_of(self, tid: Id) -> Optional[Id]:
        for fact in self.db.matching(Atom("PhRep", (None, tid))):
            return fact.args[0]
        return None

    def enum_values(self, tid: Id) -> List[str]:
        return sorted(
            fact.args[1]
            for fact in self.db.matching(Atom("EnumValue", (tid, None)))
        )

    def is_enum(self, tid: Id) -> bool:
        return bool(self.enum_values(tid))


class GomDatabase(SchemaReadMixin):
    """The Database Model of Figure 1: schema base + object-base model.

    All extension changes go through :meth:`modify`; the Analyzer and the
    Runtime System never touch relations directly.
    """

    def __init__(self, features: Sequence[str] = DEFAULT_FEATURES,
                 generate_keys: bool = True,
                 generate_references: bool = True,
                 maintenance: str = "delta",
                 obs=None,
                 executor: str = "compiled") -> None:
        self.ids = IdFactory()
        #: Observability bundle shared with the engine (tracing / metrics
        #: / profiling); defaults to the free no-op bundle.
        self.obs = obs if obs is not None else NOOP_OBS
        self.db = DeductiveDatabase(maintenance=maintenance, obs=self.obs,
                                    executor=executor)
        self.checker = ConsistencyChecker(self.db)
        self.repairer = RepairGenerator(self.db)
        self.contributions: List[FeatureContribution] = []
        #: Statistics of the most recently ended evolution session
        #: (published by the Consistency Control at commit / rollback).
        self.last_session_stats = None
        #: The :class:`repro.storage.store.DurableStore` backing this
        #: model, set by :meth:`SchemaManager.open`.  When present, the
        #: Consistency Control emits evolution-log records at BES, at
        #: every primitive modification, and at EES.
        self.durability = None
        #: Serializes evolution sessions across threads (single-writer).
        #: Readers never touch it — they query published snapshots.
        self.writer_lock = WriterLock()
        #: Committed evolution sessions — the one epoch snapshots,
        #: replies and read tokens name.  Only :meth:`advance_epoch`
        #: moves it; a durable model starts at the sessions recovery
        #: replayed.
        self.epoch = 0
        #: Whether committed sessions publish snapshots (see
        #: :meth:`enable_snapshots`; the service front-end turns it on).
        self.snapshots_enabled = False
        self._current_snapshot: Optional["SchemaSnapshot"] = None
        self._snapshot_mutex = threading.Lock()
        self._enabled: List[str] = []
        self._generate_keys = generate_keys
        self._generate_references = generate_references
        for name in self._resolve(features):
            self.enable(name)
        self._install_builtins()

    def attach_obs(self, obs) -> None:
        """Install an observability bundle after construction.

        Used when the model was built indirectly (persistence load,
        durable-store recovery) and the caller wants tracing / metrics
        on it; the engine shares the same bundle.
        """
        self.obs = obs
        self.db.obs = obs

    # -- feature management -----------------------------------------------------

    @staticmethod
    def _resolve(features: Sequence[str]) -> List[str]:
        """Order features so requirements come first."""
        ordered: List[str] = []
        seen: Set[str] = set()

        def visit(name: str, trail: Tuple[str, ...]) -> None:
            if name in seen:
                return
            if name in trail:
                raise UnknownFeatureError(
                    f"cyclic feature requirement through {name}")
            feature = get_feature(name)
            for requirement in feature.requires:
                visit(requirement, trail + (name,))
            seen.add(name)
            ordered.append(name)

        for name in features:
            visit(name, ())
        return ordered

    @property
    def features(self) -> Tuple[str, ...]:
        return tuple(self._enabled)

    def enable(self, name: str) -> FeatureContribution:
        """Enable one feature: declare its predicates, feed its rules and
        constraints into the consistency control."""
        if name in self._enabled:
            for contribution in self.contributions:
                if contribution.feature == name:
                    return contribution
        feature = get_feature(name)
        for requirement in feature.requires:
            if requirement not in self._enabled:
                self.enable(requirement)
        bindings = {"ANY": ANY_TYPE}
        for decl in feature.predicates:
            self.db.declare(decl)
        rules, inline_constraints, facts = parse_program(
            feature.rules_text, bindings) if feature.rules_text else ([], [], [])
        if facts:
            raise UnknownFeatureError(
                f"feature {name} rules text contains facts")
        for rule in rules:
            self.db.add_rule(rule)
        constraint_count = 0
        if feature.constraints_text:
            more_rules, constraints, facts = parse_program(
                feature.constraints_text, bindings)
            if more_rules or facts:
                raise UnknownFeatureError(
                    f"feature {name} constraint text contains rules or facts")
            for constraint in constraints:
                self.checker.add_constraint(self._tag(constraint, name))
                constraint_count += 1
        for constraint in inline_constraints:
            self.checker.add_constraint(self._tag(constraint, name))
            constraint_count += 1
        removed = 0
        for constraint_name in feature.removes_constraints:
            self.checker.remove_constraint(constraint_name)
            removed += 1
        generated = self._generate_structural_constraints(feature)
        contribution = FeatureContribution(
            feature=name,
            predicates=len(feature.predicates),
            rules=len(rules),
            constraints=constraint_count,
            generated_constraints=generated,
            removed_constraints=removed,
        )
        self.contributions.append(contribution)
        self._enabled.append(name)
        # New predicates / rules / constraints change what bodies mean;
        # drop every cached join plan (idempotent with the invalidations
        # done by add_rule / add_constraint, explicit for late enables).
        self.db.planner.invalidate()
        return contribution

    @staticmethod
    def _tag(constraint: Constraint, feature: str) -> Constraint:
        return Constraint(
            name=constraint.name, premise=constraint.premise,
            conclusion=constraint.conclusion, doc=constraint.doc,
            category=constraint.category, source=feature,
        )

    def _generate_structural_constraints(self, feature: FeatureModule) -> int:
        """Mechanically generate key and referential-integrity constraints
        from the predicate declarations — the constraints the paper skips
        "due to their simplicity"."""
        generated = 0
        for decl in feature.predicates:
            if self._generate_keys and decl.key \
                    and 0 < len(decl.key) < decl.arity:
                self.checker.add_constraint(
                    key_constraint(decl.name, decl.argnames, decl.key,
                                   source=feature.name))
                generated += 1
            if self._generate_references:
                for position, target, target_position in decl.references:
                    target_decl = self.db.decl(target)
                    self.checker.add_constraint(reference_constraint(
                        decl.name, decl.argnames, position,
                        target, target_decl.argnames, target_position,
                        source=feature.name))
                    generated += 1
        return generated

    # -- built-in sorts -----------------------------------------------------------

    def _install_builtins(self) -> None:
        """Seed the well-known BUILTIN schema, the root type ANY, the
        built-in sorts, and (with the object base enabled) their physical
        representations."""
        self.db.add_fact(Atom("Schema", (gom_builtins.BUILTIN_SCHEMA,
                                         gom_builtins.BUILTIN_SCHEMA_NAME)))
        self.db.add_fact(Atom("Type", (ANY_TYPE, "ANY",
                                       gom_builtins.BUILTIN_SCHEMA)))
        for name, (tid, _pytypes) in gom_builtins.BUILTIN_SORTS.items():
            self.db.add_fact(Atom("Type", (tid, name,
                                           gom_builtins.BUILTIN_SCHEMA)))
        if "objectbase" in self._enabled:
            for name, clid in gom_builtins.BUILTIN_PHREPS.items():
                tid = gom_builtins.BUILTIN_SORTS[name][0]
                self.db.add_fact(Atom("PhRep", (clid, tid)))
                # Built-in sorts are atomic: their representation has no
                # slots, so constraint (*) holds vacuously for them.

    # -- modify surface (used by the Consistency Control) ---------------------------

    def modify(self, additions: Iterable[Atom] = (),
               deletions: Iterable[Atom] = ()) -> Tuple[int, int]:
        """Apply +/- changes to the base-predicate extensions."""
        return self.db.apply_delta(additions, deletions)

    def check(self) -> CheckReport:
        """Full consistency check over all enabled constraints."""
        return self.checker.check()

    # -- snapshot publication (single writer, lock-free readers) --------------

    def enable_snapshots(self) -> None:
        """Turn on snapshot publication (idempotent).

        Once enabled, every committed evolution session publishes a new
        immutable :class:`SchemaSnapshot` at its epoch; an initial
        snapshot of the current state, at the current epoch, is
        published immediately (unless an evolution session is open, in
        which case the first publication happens at its commit).  Off
        by default so models that never serve concurrent readers pay
        nothing.
        """
        self.snapshots_enabled = True
        active = getattr(self, "active_session", None)
        if self._current_snapshot is None \
                and not (active is not None and active.active):
            self.publish_snapshot()

    def advance_epoch(self) -> None:
        """EES: count one more committed session, and publish it.

        The one place the epoch moves: the Consistency Control's commit
        (with the writer lock still held), a replica applying a shipped
        commit and recovery replaying one all call it.
        """
        self.epoch += 1
        if self.snapshots_enabled:
            self.publish_snapshot()

    def publish_snapshot(self) -> "SchemaSnapshot":
        """Export and atomically publish a snapshot of the current state,
        stamped with the current :attr:`epoch`.

        Called at EES (by :meth:`advance_epoch`) while no other writer
        can run — the extension cannot move under the export.
        Publication itself is one reference swap, so readers calling
        :meth:`snapshot` concurrently always get either the previous
        epoch or the new one, never anything partial.
        """
        active = getattr(self, "active_session", None)
        if active is not None and active.active:
            raise SessionError(
                "cannot publish a snapshot while an evolution session is "
                "open; snapshots publish at EES (commit)")
        with self._snapshot_mutex:
            snapshot = SchemaSnapshot(
                db=self.db.export_snapshot(),
                epoch=self.epoch,
                constraints=self.checker.constraints(),
                features=self.features,
            )
            self._current_snapshot = snapshot
        if self.obs.enabled:
            self.obs.metrics.gauge("snapshot.epoch").set(self.epoch)
            self.obs.metrics.counter("snapshot.published").inc()
        return snapshot

    def snapshot(self) -> "SchemaSnapshot":
        """The most recently published snapshot (lock-free read).

        Lazily enables publication on first use.  Raises
        :class:`~repro.errors.SessionError` when no snapshot exists yet
        and one cannot be published because an evolution session is open
        — readers must never observe a torn mid-session extension.
        """
        snapshot = self._current_snapshot
        if snapshot is not None:
            return snapshot
        self.enable_snapshots()
        snapshot = self._current_snapshot
        if snapshot is None:
            raise SessionError(
                "no snapshot published yet and an evolution session is "
                "open; retry after the session commits or rolls back")
        return snapshot


class SchemaSnapshot(SchemaReadMixin):
    """One published epoch of the schema: immutable, thread-safe reads.

    Wraps a frozen :class:`~repro.datalog.snapshot.SnapshotDatabase`
    (EDB + saturated IDB at publication time) with the full
    :class:`SchemaReadMixin` lookup surface, its own
    :class:`~repro.datalog.checker.ConsistencyChecker` built from the
    live checker's constraints, and a version-graph view — so readers
    can run schema lookups, full consistency checks, and version /
    fashion queries against one consistent epoch while the live model
    keeps evolving.
    """

    def __init__(self, db, epoch: int, constraints: Sequence[Constraint] = (),
                 features: Tuple[str, ...] = ()) -> None:
        self.db = db
        self.epoch = epoch
        self.features = tuple(features)
        #: Monotonic publication instant, for snapshot-age metrics.
        self.published_at = time.monotonic()
        # Built eagerly: lazy construction would race when the first two
        # readers arrive simultaneously.
        self.checker = ConsistencyChecker(db, constraints)

    def age_seconds(self) -> float:
        """Seconds since this snapshot was published."""
        return time.monotonic() - self.published_at

    def check(self) -> CheckReport:
        """Full consistency check of this epoch (safe from any thread)."""
        return self.checker.check()

    @property
    def versions(self):
        """A :class:`~repro.versioning.versions.VersionGraph` over this
        epoch."""
        from repro.versioning.versions import VersionGraph
        return VersionGraph(self)
