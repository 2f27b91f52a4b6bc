"""Evolution sessions: BES … EES with deferred consistency checking.

The paper decouples schema evolution operations from schema consistency:
"consistency checking is deferred until the end of a schema evolution
session".  :class:`EvolutionSession` implements this:

* ``modify`` applies +/- changes to the base-predicate extensions
  immediately (so later operations in the same session see them), while
  recording the net delta;
* ``check`` (EES) runs the consistency check — incrementally against the
  net delta by default, or the naive full check on request;
* on violations, ``repairs`` generates the repair alternatives with
  explanations ordered from the registered explainers (the Analyzer and
  the Runtime System, protocol step 7);
* ``apply_repair`` executes a chosen repair inside the session;
* ``rollback`` restores the extensions exactly as they were at BES;
* ``commit`` closes the session.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    MissingRepairInputError,
    SessionAlreadyActiveError,
    SessionClosedError,
    InconsistentSchemaError,
)
from repro.datalog.checker import CheckReport, Violation
from repro.datalog.plan import EngineStats
from repro.datalog.repair import NewConstant, Repair, RepairAction
from repro.datalog.terms import Atom
from repro.gom.model import GomDatabase

#: An explainer maps one repair action to a human explanation (or None
#: when the action is outside its competence).
Explainer = Callable[[RepairAction], Optional[str]]


@dataclass(frozen=True)
class ExplainedRepair:
    """A repair together with the explanations of its actions."""

    repair: Repair
    explanations: Tuple[str, ...]

    def describe(self) -> str:
        lines = [repr(self.repair.display_action) + f"   ({self.repair.kind})"]
        for action in self.repair.edb_actions:
            if (action,) != (self.repair.display_action,):
                lines.append(f"    executes as {action!r}")
        for explanation in self.explanations:
            lines.append(f"    // {explanation}")
        return "\n".join(lines)


@dataclass
class SessionReport:
    """The result of an EES consistency check."""

    report: CheckReport
    net_additions: Tuple[Atom, ...]
    net_deletions: Tuple[Atom, ...]

    @property
    def consistent(self) -> bool:
        return self.report.consistent

    @property
    def violations(self) -> List[Violation]:
        return self.report.violations

    def describe(self) -> str:
        delta = (f"delta: +{len(self.net_additions)} "
                 f"-{len(self.net_deletions)} facts")
        return f"{delta}\n{self.report.describe()}"


class EvolutionSession:
    """One BES … EES bracket over a :class:`GomDatabase`."""

    def __init__(self, model: GomDatabase, check_mode: str = "delta",
                 label: Optional[str] = None) -> None:
        """*label* names the session's purpose (e.g. ``migration.batch``)
        in its tracer span and, on durable models, as a WAL annotation —
        so operational sessions are tellable apart from user evolutions
        in traces and logs."""
        if check_mode not in ("delta", "full"):
            raise ValueError(f"check_mode must be 'delta' or 'full', "
                             f"got {check_mode!r}")
        self.owner_thread = threading.get_ident()
        # Same-thread double-BES is a programming error and raises
        # immediately (blocking would self-deadlock); a session open in
        # *another* thread makes us wait on the writer lock instead —
        # sessions are serialized, not refused, across threads.
        active = getattr(model, "active_session", None)
        if active is not None and active.active \
                and active.owner_thread == self.owner_thread:
            raise SessionAlreadyActiveError(
                "an evolution session is already open on this model; "
                "end it (commit / rollback) before starting another")
        lock_wait = model.writer_lock.acquire()
        self.lock_wait_seconds = lock_wait
        try:
            self._begin(model, check_mode, lock_wait, label)
        except BaseException:
            model.writer_lock.release()
            raise

    def _begin(self, model: GomDatabase, check_mode: str,
               lock_wait: float, label: Optional[str] = None) -> None:
        self.model = model
        self.label = label
        # Initialize the lifecycle flag *before* publishing this session
        # on the model: another thread blocked in BES reads
        # ``model.active_session.active`` the moment the attribute lands,
        # and must never observe a half-constructed session.
        self._closed = False
        model.active_session = self
        self.check_mode = check_mode
        #: Fresh instrumentation for this BES…EES bracket; every engine
        #: evaluation inside the session is attributed to it.
        self.stats: EngineStats = model.db.begin_stats()
        self.obs = model.db.obs
        if self.obs.enabled:
            self.obs.metrics.histogram("session.lock_wait_ms").observe(
                lock_wait * 1000.0)
            if lock_wait:
                self.obs.metrics.counter("session.lock_contended").inc()
        # Interned row sets, not decoded values: rollback restores codes
        # straight into the columns without re-interning anything.
        self._snapshot = model.db.edb.snapshot_codes()
        # Exact derived deltas for the EES incremental check: materialize
        # once and let the engine account grown/shrunk sets as the
        # session's changes propagate.  The reset happens at every BES
        # regardless of this session's check mode: the accumulator
        # baseline must be *this* session's BES, or a later delta check
        # would net this session's changes against a previous session's
        # (a grow there cancelling a shrink here masks the shrink
        # entirely).  The recompute reference engine accounts nothing;
        # its delta checks take the checker's counted fallback.
        if model.db.maintenance == "delta":
            model.db.materialize()
            model.db.reset_derived_delta()
        self._net: Dict[Atom, int] = {}
        #: Runtime-side compensation callbacks (object-base undo).  The
        #: EDB restores from its BES snapshot on rollback, but cures and
        #: object lifecycle operations also mutate Python object state
        #: outside the deductive database; they register undo entries
        #: here, run LIFO on rollback and discarded on commit.
        self._undo: List[Callable[[], None]] = []
        self._explainers: List[Explainer] = []
        self.began_at = time.perf_counter()
        #: Evolution-log session id when the model is durably backed
        #: (the BES record is emitted here), None on in-memory models.
        self.wal_id: Optional[int] = None
        durability = getattr(model, "durability", None)
        if durability is not None:
            self.wal_id = durability.begin_session(check_mode)
        #: The BES…EES bracket as one span; closed when the session ends.
        self._span = self.obs.span("session", mode=check_mode)
        self._span.__enter__()
        if self.wal_id is not None:
            self._span.set("wal_id", self.wal_id)
        if label is not None:
            self._span.set("label", label)
            self.annotate(f"label: {label}")
        if self.obs.profiler is not None:
            self.obs.profiler.start(
                f"session-{id(self):x}" if self.wal_id is None
                else f"session-{self.wal_id}")

    # -- state ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return not self._closed

    def _require_active(self) -> None:
        if self._closed:
            raise SessionClosedError("the evolution session has ended")

    def register_explainer(self, explainer: Explainer) -> None:
        """Register an Analyzer / Runtime System explanation hook."""
        self._explainers.append(explainer)

    def record_undo(self, undo: Callable[[], None]) -> None:
        """Register a compensation callback run if this session rolls back.

        Conversion cures and object lifecycle operations mutate runtime
        state (instance slots, the object store) that the EDB snapshot
        restore cannot see; each such mutation records its inverse here
        so rollback restores the object base together with the model.
        Callbacks run LIFO after the EDB restore; commit discards them.
        """
        self._require_active()
        self._undo.append(undo)

    def annotate(self, text: str) -> None:
        """Add a free-form note to the durable session history.

        Used by the evolution protocol to record its decisions (chosen
        repairs, user-requested undo) so the log doubles as a replayable
        history of *why* the schema changed, not just *what* changed.
        A no-op on in-memory models.
        """
        if self.wal_id is not None:
            self.model.durability.annotate(self.wal_id, text)

    # -- modifications -------------------------------------------------------------

    def modify(self, additions: Iterable[Atom] = (),
               deletions: Iterable[Atom] = ()) -> None:
        """Apply +/- changes through the Consistency Control."""
        self._require_active()
        additions = list(additions)
        deletions = list(deletions)
        for fact in deletions:
            if self.model.db.edb.contains(fact):
                self._bump(fact, -1)
        for fact in additions:
            if not self.model.db.edb.contains(fact):
                self._bump(fact, +1)
        self.model.modify(additions, deletions)
        # Log after the in-memory apply succeeded, so op records mirror
        # exactly the primitives that executed; the session only becomes
        # durable at its (fsync'd) commit record anyway.
        if self.wal_id is not None and (additions or deletions):
            self.model.durability.log_operations(self.wal_id, additions,
                                                 deletions)

    def add(self, fact: Atom) -> None:
        """Convenience: insert one fact."""
        self.modify(additions=(fact,))

    def remove(self, fact: Atom) -> None:
        """Convenience: delete one fact."""
        self.modify(deletions=(fact,))

    def _bump(self, fact: Atom, direction: int) -> None:
        value = self._net.get(fact, 0) + direction
        if value == 0:
            self._net.pop(fact, None)
        else:
            self._net[fact] = value

    def net_delta(self) -> Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]:
        """The session's net (additions, deletions) so far."""
        additions = tuple(sorted((fact for fact, sign in self._net.items()
                                  if sign > 0), key=repr))
        deletions = tuple(sorted((fact for fact, sign in self._net.items()
                                  if sign < 0), key=repr))
        return additions, deletions

    # -- EES: checking ----------------------------------------------------------------

    def check(self, mode: Optional[str] = None) -> SessionReport:
        """Run the EES consistency check (does not close the session)."""
        self._require_active()
        mode = mode or self.check_mode
        additions, deletions = self.net_delta()
        with self.obs.span("session.check", mode=mode) as span:
            if mode == "delta":
                report = self.model.checker.check_delta(
                    additions, deletions,
                    derived_delta=self.model.db.derived_delta())
            else:
                report = self.model.checker.check()
            if self.obs.enabled:
                span.set("violations", len(report.violations))
                self.obs.metrics.counter(f"session.checks[{mode}]").inc()
        return SessionReport(report=report, net_additions=additions,
                             net_deletions=deletions)

    # -- repairs -------------------------------------------------------------------------

    def repairs(self, violation: Violation) -> List[ExplainedRepair]:
        """Generate all repairs for a violation, with explanations."""
        self._require_active()
        result: List[ExplainedRepair] = []
        for repair in self.model.repairer.repairs(violation):
            explanations: List[str] = []
            for action in repair.edb_actions:
                explanation = self.explain(action)
                if explanation:
                    explanations.append(explanation)
            result.append(ExplainedRepair(repair=repair,
                                          explanations=tuple(explanations)))
        return result

    def explain(self, action: RepairAction) -> Optional[str]:
        """Ask the registered explainers what an action means (step 7)."""
        for explainer in self._explainers:
            explanation = explainer(action)
            if explanation:
                return explanation
        return None

    def apply_repair(self, repair: Repair,
                     inputs: Optional[Dict[str, object]] = None) -> None:
        """Execute a chosen repair inside the session.

        *inputs* supplies values for :class:`NewConstant` placeholders,
        keyed by their hint (e.g. the conversion routine's default value).
        """
        self._require_active()
        additions: List[Atom] = []
        deletions: List[Atom] = []
        for action in repair.edb_actions:
            fact = self._resolve_placeholders(
                action.fact, inputs if inputs is not None else {})
            if action.is_insertion:
                additions.append(fact)
            else:
                deletions.append(fact)
        self.modify(additions, deletions)

    @staticmethod
    def _resolve_placeholders(fact: Atom,
                              inputs: Dict[str, object]) -> Atom:
        resolved = []
        for arg in fact.args:
            if isinstance(arg, NewConstant):
                if arg.hint not in inputs:
                    raise MissingRepairInputError(
                        f"repair needs a value for placeholder {arg!r}")
                resolved.append(inputs[arg.hint])
            else:
                resolved.append(arg)
        return Atom(fact.pred, resolved)

    # -- ending the session ------------------------------------------------------------------

    def commit(self, require_consistent: bool = True,
               mode: Optional[str] = None) -> SessionReport:
        """EES: check and close.  With *require_consistent* (the default),
        violations raise :class:`InconsistentSchemaError` and the session
        stays open so the caller can repair or roll back."""
        report = self.check(mode)
        if require_consistent and not report.consistent:
            raise InconsistentSchemaError(report.violations)
        # EES durability point: fsync the commit record before the
        # session closes.  A crash here leaves the session uncommitted
        # and recovery discards it whole — never a partial effect.
        if self.wal_id is not None:
            self.model.durability.commit_session(self.wal_id)
        self._closed = True
        self._undo.clear()
        self.model.active_session = None
        try:
            self._publish_stats("commit")
            # The epoch and its snapshot are part of EES: the new epoch
            # becomes visible to readers before the writer lock is
            # released, so the next writer cannot commit epoch N+1 while
            # N is still being exported.
            self.model.advance_epoch()
        finally:
            self.model.writer_lock.release()
        return report

    def rollback(self) -> None:
        """Undo the whole evolution session and close it."""
        self._require_active()
        db = self.model.db
        ops = len(self._net)
        # Fast path: undo through the maintenance machinery.  When the
        # engine maintained its views incrementally all session long
        # (accounting still exact), applying the *inverse* net delta
        # rolls the EDB back fact-for-fact and DRed/semi-naive repairs
        # the derived store in place — so the next BES materialize is a
        # no-op instead of a full recompute of every touched stratum.
        # ``net_delta`` is exact because ``modify`` only counts real
        # presence transitions; the snapshot comparison below catches
        # the one escape hatch (a mutation that bypassed the session),
        # in which case we fall back to the snapshot restore.
        restored = attempted = False
        if db.maintenance == "delta" and db.derived_delta_exact:
            attempted = True
            additions, deletions = self.net_delta()
            if additions or deletions:
                db.apply_delta(additions=deletions, deletions=additions)
            restored = db.edb.snapshot_codes() == self._snapshot
        if not restored:
            db.edb.restore_codes(self._snapshot)
            # Invalidate every derived predicate the session may have
            # touched: the restored extension matches no accumulated
            # grown/shrunk state.  When the inverse delta was attempted
            # and missed, ``_net`` under-reported (a mutation bypassed
            # the session), so widen to every base predicate.
            stale = set(self._snapshot) if attempted \
                else {fact.pred for fact in self._net}
            if stale:
                db.invalidate(stale)
        # Either way the session's derived-delta accounting is spent:
        # the accumulator baseline was this session's BES, and the next
        # BES resets it.
        db.discard_derived_delta()
        # Compensate runtime-side mutations (instance slots, the object
        # store) in reverse order — the object base rolls back with the
        # model (see :meth:`record_undo`).
        while self._undo:
            self._undo.pop()()
        self._net.clear()
        if self.wal_id is not None:
            self.model.durability.rollback_session(self.wal_id)
        self._closed = True
        self.model.active_session = None
        try:
            self._publish_stats("rollback", ops=ops)
        finally:
            self.model.writer_lock.release()

    def _publish_stats(self, outcome: str = "closed",
                       ops: Optional[int] = None) -> None:
        """Freeze this session's counters and expose them on the model."""
        self.stats.finish()
        self.model.last_session_stats = self.stats
        obs = self.obs
        if obs.profiler is not None:
            obs.profiler.stop()
        if obs.enabled:
            if ops is None:
                additions, deletions = self.net_delta()
                ops = len(additions) + len(deletions)
            self._span.set("outcome", outcome)
            self._span.set("ops", ops)
            obs.metrics.absorb_engine_stats(self.stats)
            obs.metrics.counter(f"session.{outcome}s").inc()
        self._span.__exit__(None, None, None)
