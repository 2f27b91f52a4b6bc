"""Immutable snapshots of the deductive database for lock-free readers.

:meth:`~repro.datalog.engine.DeductiveDatabase.export_snapshot` hands out
a :class:`SnapshotDatabase`: the EDB *and* the saturated IDB at export
time, forked copy-on-write (:meth:`~repro.datalog.facts.FactStore.fork_shared`)
so nothing is copied at publish time, and the live engine's later
writes copy only the relations and index buckets they touch.

A snapshot answers the live engine's read API by construction: both
extend :class:`~repro.datalog.engine.ReadableDatabase`, which holds the
one implementation of ``contains`` / ``facts`` / ``matching`` /
``relation`` / ``count`` / ``query`` / ``holds``.  A snapshot has no
program, no strata and no provenance: the IDB is pre-saturated, so
derived predicates read as ordinary indexed relations.  That makes
every read O(lookup) with zero synchronization; any number of threads
may query one snapshot concurrently.  Mutation entry points raise
:class:`~repro.errors.ReadOnlySnapshotError`.

Each snapshot owns its :class:`~repro.datalog.plan.QueryPlanner` and
:class:`~repro.datalog.plan.EngineStats`, so reader-side planning and
instrumentation never race the live session's.  The planner holds a
weak proxy, so no cycle runs through a snapshot: a retired epoch dies
by refcount when its last holder lets go, not in a cyclic-GC pass.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.errors import ReadOnlySnapshotError, UnknownPredicateError
from repro.datalog.engine import ReadableDatabase
from repro.datalog.facts import FactStore
from repro.datalog.plan import EngineStats, QueryPlanner

__all__ = ["SnapshotDatabase"]


class SnapshotDatabase(ReadableDatabase):
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

    def _ensure_fresh(self, pred: str) -> None:
        # The IDB was saturated at export: only the name needs checking.
        if not self._derived_store.is_declared(pred):
            raise UnknownPredicateError(f"unknown predicate {pred}")

    # -- refused mutations ----------------------------------------------------

    def _read_only(self, operation: str):
        raise ReadOnlySnapshotError(
            f"cannot {operation} on a published snapshot; snapshots are "
            f"immutable — evolve through the live model and read the next "
            f"epoch")

    def add_fact(self, fact):
        self._read_only("add a fact")

    def remove_fact(self, fact):
        self._read_only("remove a fact")

    def apply_delta(self, additions=(), deletions=()):
        self._read_only("apply a delta")

    def add_rule(self, rule):
        self._read_only("add a rule")

    def declare(self, decl):
        self._read_only("declare a predicate")
