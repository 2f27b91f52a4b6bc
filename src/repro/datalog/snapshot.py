"""Immutable snapshots of the deductive database for lock-free readers.

:meth:`~repro.datalog.engine.DeductiveDatabase.export_snapshot` hands out
a :class:`SnapshotDatabase`: the EDB *and* the saturated IDB at export
time, forked copy-on-write (:meth:`~repro.datalog.facts.FactStore.fork_shared`)
so nothing is copied at publish time, and the live engine's later
writes copy only the relations and index buckets they touch.

A snapshot is a plain query surface — the same read API as the live
engine (``contains`` / ``facts`` / ``matching`` / ``relation`` /
``count`` / ``query`` / ``holds``) — but with no program, no strata and
no provenance: the IDB is pre-saturated, so derived predicates read as
ordinary indexed relations.  That makes every read O(lookup) with zero
synchronization; any number of threads may query one snapshot
concurrently.  Mutation entry points raise
:class:`~repro.errors.ReadOnlySnapshotError`.

Each snapshot owns its :class:`~repro.datalog.plan.QueryPlanner` and
:class:`~repro.datalog.plan.EngineStats`, so reader-side planning and
instrumentation never race the live session's.  The planner holds a
weak proxy, so no cycle runs through a snapshot: a retired epoch dies
by refcount when its last holder lets go, not in a cyclic-GC pass.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReadOnlySnapshotError, UnknownPredicateError
from repro.datalog.facts import FactStore, PredicateDecl, Relation
from repro.datalog.plan import EngineStats, QueryPlanner
from repro.datalog.rules import BodyElement
from repro.datalog.terms import Atom, Substitution

__all__ = ["RelationExcerpt", "SnapshotDatabase", "export_excerpt",
           "install_excerpt"]


class SnapshotDatabase:
    """A frozen EDB + saturated IDB with the engine's read API."""

    def __init__(self, edb: FactStore, derived: FactStore,
                 stats: Optional[EngineStats] = None, obs=None,
                 executor: str = "compiled") -> None:
        from repro.obs import NOOP_OBS
        self.edb = edb
        self._derived_store = derived
        self.stats = stats if stats is not None else EngineStats()
        self.obs = obs if obs is not None else NOOP_OBS
        #: Join executor, inherited from the exporting engine.  The
        #: symbol table is shared with the live database by reference
        #: (append-only, so codes recorded at export stay valid); query
        #: seeds interning new constants is safe from any thread.
        self.executor = executor
        self.symbols = edb.symbols
        self.planner = QueryPlanner(weakref.proxy(self))

    # -- declarations ---------------------------------------------------------

    def is_base(self, pred: str) -> bool:
        return self.edb.is_declared(pred)

    def is_derived(self, pred: str) -> bool:
        return self._derived_store.is_declared(pred)

    def is_declared(self, pred: str) -> bool:
        return self.is_base(pred) or self.is_derived(pred)

    def decl(self, pred: str) -> PredicateDecl:
        if self.edb.is_declared(pred):
            return self.edb.decl(pred)
        return self._derived_store.decl(pred)

    def _store_for(self, pred: str) -> FactStore:
        if self.edb.is_declared(pred):
            return self.edb
        if self._derived_store.is_declared(pred):
            return self._derived_store
        raise UnknownPredicateError(f"unknown predicate {pred}")

    # -- queries --------------------------------------------------------------

    def contains(self, fact: Atom) -> bool:
        return self._store_for(fact.pred).contains(fact)

    def facts(self, pred: str) -> Iterator[Atom]:
        yield from self._store_for(pred).facts(pred)

    def matching(self, pattern: Atom) -> Iterator[Atom]:
        yield from self._store_for(pattern.pred).matching(pattern)

    def relation(self, pred: str) -> Relation:
        return self._store_for(pred).relation(pred)

    def count(self, pred: str) -> int:
        return self._store_for(pred).count(pred)

    def total_facts(self) -> int:
        return self.edb.total_facts() + self._derived_store.total_facts()

    def query(self, body: Sequence[BodyElement],
              theta: Optional[Substitution] = None) -> Iterator[Substitution]:
        """Plan-driven conjunctive query over the frozen extension."""
        body = tuple(body)
        theta = dict(theta) if theta else {}
        plan = self.planner.plan_for(body, theta)
        yield from plan.substitutions(self, theta)

    def holds(self, body: Sequence[BodyElement],
              theta: Optional[Substitution] = None) -> bool:
        plan = self.planner.plan_for(tuple(body), theta)
        return plan.probe(self, theta)

    # -- refused mutations ----------------------------------------------------

    def _read_only(self, operation: str):
        raise ReadOnlySnapshotError(
            f"cannot {operation} on a published snapshot; snapshots are "
            f"immutable — evolve through the live model and read the next "
            f"epoch")

    def add_fact(self, fact: Atom):
        self._read_only("add a fact")

    def remove_fact(self, fact: Atom):
        self._read_only("remove a fact")

    def apply_delta(self, additions=(), deletions=()):
        self._read_only("apply a delta")

    def add_rule(self, rule):
        self._read_only("add a rule")

    def declare(self, decl):
        self._read_only("declare a predicate")


# ---------------------------------------------------------------------------
# Relation excerpts: moving interned rows across SymbolTable boundaries
# ---------------------------------------------------------------------------


@dataclass
class RelationExcerpt:
    """A detached, store-independent slice of one fact store.

    ``rows`` holds code tuples exactly as the source store interned
    them; ``values`` is the *partial* symbol table covering just the
    codes the rows use.  An excerpt therefore carries no reference to
    its source — it can cross a process boundary (the farm serializes
    it) and be re-interned into any target store, whose symbol table
    assigns its own, generally different, codes.
    """

    rows: Dict[str, List[Tuple[int, ...]]] = field(default_factory=dict)
    values: Dict[int, object] = field(default_factory=dict)

    @property
    def fact_count(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def decoded(self) -> Iterator[Atom]:
        """The excerpt's content as ground atoms (source-value typed)."""
        values = self.values
        for pred in sorted(self.rows):
            for codes in self.rows[pred]:
                yield Atom(pred, tuple(values[code] for code in codes))


def export_excerpt(store: FactStore,
                   selection: Optional[Dict[str, Iterable[Atom]]] = None,
                   predicates: Optional[Sequence[str]] = None
                   ) -> RelationExcerpt:
    """Detach rows of *store* into a :class:`RelationExcerpt`.

    With no arguments the whole store is exported (``snapshot_codes()``
    plus the value slice those codes need).  *predicates* restricts the
    export to some relations; *selection* maps predicate names to the
    exact ground atoms wanted (atoms a relation does not contain are
    ignored — the excerpt reflects the store, not the wish list).
    """
    excerpt = RelationExcerpt()
    symbols = store.symbols
    values = excerpt.values

    def keep(pred: str, codes: Tuple[int, ...]) -> None:
        excerpt.rows.setdefault(pred, []).append(codes)
        for code in codes:
            if code not in values:
                values[code] = symbols.value(code)

    if selection is not None:
        for pred, atoms in selection.items():
            relation = store.relation(pred)
            for atom in atoms:
                codes = symbols.code_row(atom.args)
                if relation.contains_codes(codes):
                    keep(pred, codes)
        return excerpt
    names = predicates if predicates is not None else list(store.predicates())
    for pred in names:
        for codes in store.relation(pred).row_codes():
            keep(pred, codes)
    return excerpt


def install_excerpt(store: FactStore, excerpt: RelationExcerpt) -> int:
    """Re-intern an excerpt's rows into *store*; returns rows added.

    The target's :class:`~repro.datalog.symbols.SymbolTable` assigns its
    own codes (values equal, codes generally different), and
    :meth:`~repro.datalog.facts.Relation.add` rebuilds the per-column
    indexes as it inserts, so the installed rows are immediately
    queryable.  Rows already present dedup silently; unknown predicates
    raise :class:`~repro.errors.UnknownPredicateError` — the caller
    aligns feature stacks, not this function.
    """
    values = excerpt.values
    added = 0
    for pred in sorted(excerpt.rows):
        relation = store.relation(pred)
        for codes in excerpt.rows[pred]:
            if relation.add(tuple(values[code] for code in codes)):
                added += 1
    return added
