"""The differential oracle stack: one history, every checker at once.

A generated history is replayed against three manager variants —

* **primary**: durable (WAL + snapshots), delta maintenance, the
  compiled executor, periodic checkpoints;
* **recompute**: in-memory, clear-and-recompute maintenance;
* **interpreted**: in-memory, delta maintenance, interpreted executor —

under a deterministic EES protocol (check, cure-or-rollback, commit),
so any divergence in per-session outcome or EDB content digest is a
bug in exactly one layer.  Orthogonal oracles ride along: delta-check ≡
full-check (sessions always start consistent, so completeness holds),
rollback residue-freedom, snapshot-epoch monotonicity and digest
equality, repair applicability, and WAL crash-recovery replay
equivalence at end of history.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.fuzz.history import History
from repro.fuzz.replay import Replayer
from repro.manager import SchemaManager
from repro.service.stress import edb_digest
from repro.storage.faults import CrashPoint

#: Rounds of pick-one-repair-and-apply before the driver gives up and
#: rolls the session back.
MAX_CURE_ROUNDS = 6

#: Cap on violations probed by the repair-applicability oracle per
#: session (hostile sessions can accumulate hundreds).
MAX_REPAIR_PROBES = 10


class CannedInputs(dict):
    """Deterministic answers for ``NewConstant`` placeholders."""

    def __contains__(self, key: object) -> bool:
        return True

    def __missing__(self, key: str) -> str:
        return f"fuzz_{key}"


@dataclass
class OracleFailure:
    oracle: str
    session: Optional[int]
    detail: str

    def describe(self) -> str:
        where = "end-of-history" if self.session is None \
            else f"session {self.session}"
        return f"[{self.oracle}] {where}: {self.detail}"


@dataclass
class SessionOutcome:
    """What one variant did with one session plan."""

    outcome: str      # commit | rollback | cure-commit | cure-rollback
    digest: str
    applied: int
    skipped: int
    violations: int
    cure_rounds: int = 0

    @property
    def key(self) -> Tuple[str, str]:
        return (self.outcome, self.digest)


@dataclass
class VariantResult:
    name: str
    outcomes: List[SessionOutcome] = field(default_factory=list)
    #: digest after N committed sessions; index 0 is the initial state.
    digests_by_commits: List[str] = field(default_factory=list)

    @property
    def final_digest(self) -> str:
        return self.outcomes[-1].digest if self.outcomes else ""

    @property
    def commits(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.outcome in ("commit", "cure-commit"))


def _violation_keys(report) -> Set[Tuple[str, str]]:
    return {(v.constraint.name, repr(v.theta)) for v in report.violations}


class SessionDriver:
    """Replays a history through one manager, oracle-instrumented."""

    def __init__(self, name: str, manager: SchemaManager,
                 failures: List[OracleFailure],
                 delta_oracle: bool = False,
                 epoch_oracle: bool = False,
                 repair_oracle: bool = False,
                 checkpoint_every: int = 0) -> None:
        self.name = name
        self.manager = manager
        self.failures = failures
        self.delta_oracle = delta_oracle
        self.epoch_oracle = epoch_oracle
        self.repair_oracle = repair_oracle
        self.checkpoint_every = checkpoint_every
        self.replayer = Replayer(manager)

    def _fail(self, oracle: str, session: Optional[int],
              detail: str) -> None:
        self.failures.append(OracleFailure(
            oracle=oracle, session=session,
            detail=f"[{self.name}] {detail}"))

    def run(self, history: History) -> VariantResult:
        result = VariantResult(name=self.name)
        model = self.manager.model
        result.digests_by_commits.append(edb_digest(model.db))
        for index, plan in enumerate(history.sessions):
            digest_before = edb_digest(model.db)
            epoch_before = model.epoch
            session = self.manager.begin_session(check_mode="delta")
            applied = skipped = 0
            try:
                for op in plan.ops:
                    if self.replayer.apply(session, op):
                        applied += 1
                    else:
                        skipped += 1
                outcome = self._finish(session, plan, index)
            except CrashPoint:
                raise
            except ReproError as exc:
                self._fail("driver", index,
                           f"unexpected {type(exc).__name__}: {exc}")
                if self.manager.model.active_session is session \
                        and not getattr(session, "_closed", True):
                    session.rollback()
                outcome = SessionOutcome("driver-error",
                                         edb_digest(model.db),
                                         applied, skipped, 0)
                result.outcomes.append(outcome)
                continue
            outcome.applied, outcome.skipped = applied, skipped
            result.outcomes.append(outcome)
            committed = outcome.outcome in ("commit", "cure-commit")
            if committed:
                result.digests_by_commits.append(outcome.digest)
            if self.epoch_oracle:
                expected = epoch_before + 1 if committed else epoch_before
                if model.epoch != expected:
                    self._fail("epoch_monotonic", index,
                               f"epoch {model.epoch}, expected {expected}")
                if committed and \
                        edb_digest(model.snapshot().db) != outcome.digest:
                    self._fail("snapshot_digest", index,
                               "published snapshot diverges from live EDB")
            if not committed and outcome.digest != digest_before:
                self._fail("rollback_residue", index,
                           "EDB digest changed across a rolled-back "
                           "session")
            if self.checkpoint_every and committed and \
                    result.commits % self.checkpoint_every == 0:
                self.manager.checkpoint()
        return result

    # -- the deterministic EES protocol ---------------------------------------

    def _finish(self, session, plan, index: int) -> SessionOutcome:
        model = self.manager.model
        if plan.outcome == "rollback":
            session.rollback()
            return SessionOutcome("rollback", edb_digest(model.db), 0, 0, 0)
        full = session.check(mode="full")
        if self.delta_oracle:
            delta = session.check(mode="delta")
            delta_keys, full_keys = _violation_keys(delta.report), \
                _violation_keys(full.report)
            if delta_keys != full_keys:
                only_delta = sorted(delta_keys - full_keys)
                only_full = sorted(full_keys - delta_keys)
                self._fail("delta_vs_full", index,
                           f"delta-only={only_delta[:3]} "
                           f"full-only={only_full[:3]}")
        violations = len(full.violations)
        if full.consistent:
            session.commit(mode="full")
            return SessionOutcome("commit", edb_digest(model.db), 0, 0,
                                  violations)
        cured, rounds = self._cure(session, full, index)
        if cured:
            session.commit(mode="full")
            return SessionOutcome("cure-commit", edb_digest(model.db),
                                  0, 0, violations, cure_rounds=rounds)
        session.rollback()
        return SessionOutcome("cure-rollback", edb_digest(model.db),
                              0, 0, violations, cure_rounds=rounds)

    def _cure(self, session, report, index: int) -> Tuple[bool, int]:
        """Bounded deterministic cure: repeatedly repair the smallest
        violation (by constraint name, then binding repr)."""
        if self.repair_oracle:
            for violation in sorted(
                    report.violations,
                    key=lambda v: (v.constraint.name, repr(v.theta))
            )[:MAX_REPAIR_PROBES]:
                try:
                    session.repairs(violation)
                except CrashPoint:
                    raise
                except Exception as exc:
                    # Any crash here is itself a finding: the repair
                    # engine must at worst return no repairs, never die.
                    self._fail("repair_applicability", index,
                               f"{violation.constraint.name}: "
                               f"{type(exc).__name__}: {exc}")
        for round_number in range(1, MAX_CURE_ROUNDS + 1):
            violations = sorted(report.violations,
                                key=lambda v: (v.constraint.name,
                                               repr(v.theta)))
            if not violations:
                return True, round_number
            try:
                explained = session.repairs(violations[0])
            except CrashPoint:
                raise
            except Exception:
                return False, round_number
            if not explained:
                return False, round_number
            chosen = next((e.repair for e in explained
                           if not e.repair.requires_user_input()),
                          explained[0].repair)
            try:
                session.apply_repair(chosen, inputs=CannedInputs())
            except CrashPoint:
                raise
            except ReproError:
                return False, round_number
            report = session.check(mode="full")
            if report.consistent:
                return True, round_number
        return False, MAX_CURE_ROUNDS


def _compare(oracle: str, left: VariantResult, right: VariantResult,
             failures: List[OracleFailure]) -> None:
    for index, (a, b) in enumerate(zip(left.outcomes, right.outcomes)):
        if a.key != b.key:
            failures.append(OracleFailure(
                oracle=oracle, session=index,
                detail=(f"{left.name}={a.outcome}/{a.digest[:12]} vs "
                        f"{right.name}={b.outcome}/{b.digest[:12]}")))
            return  # later sessions diverge as a consequence


@dataclass
class FuzzReport:
    history: History
    variants: Dict[str, VariantResult]
    failures: List[OracleFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [f"{len(self.history.sessions)} sessions, "
                 f"{self.history.op_count} ops "
                 f"(seed={self.history.seed}, bias={self.history.bias})"]
        for name in sorted(self.variants):
            variant = self.variants[name]
            outcomes: Dict[str, int] = {}
            applied = skipped = 0
            for outcome in variant.outcomes:
                outcomes[outcome.outcome] = \
                    outcomes.get(outcome.outcome, 0) + 1
                applied += outcome.applied
                skipped += outcome.skipped
            summary = " ".join(f"{k}={v}" for k, v in sorted(
                outcomes.items()))
            lines.append(f"  {name:<12} {summary} ops={applied}"
                         f"(+{skipped} skipped) "
                         f"digest={variant.final_digest[:12]}")
        if self.failures:
            lines.append("FAILURES:")
            lines.extend(f"  {failure.describe()}"
                         for failure in self.failures)
        else:
            lines.append("all oracles passed")
        return "\n".join(lines)


def run_oracle_stack(history: History,
                     workdir: Optional[str] = None,
                     checkpoint_every: int = 3) -> FuzzReport:
    """Replay *history* through the full differential stack."""
    failures: List[OracleFailure] = []
    owns_workdir = workdir is None
    if owns_workdir:
        workdir = tempfile.mkdtemp(prefix="repro-fuzz-")
    features = list(history.features)
    try:
        primary_dir = os.path.join(workdir, "primary")
        manager = SchemaManager.open(primary_dir, features=features)
        manager.model.enable_snapshots()
        primary = SessionDriver(
            "primary", manager, failures, delta_oracle=True,
            epoch_oracle=True, repair_oracle=True,
            checkpoint_every=checkpoint_every).run(history)
        live_digest = edb_digest(manager.model.db)
        manager.close()

        # WAL crash-recovery replay equivalence: reopening must land on
        # exactly the committed state, and that state must be consistent.
        reopened = SchemaManager.open(primary_dir, features=features)
        recovered_digest = edb_digest(reopened.model.db)
        if recovered_digest != live_digest:
            failures.append(OracleFailure(
                "wal_replay", None,
                f"recovered {recovered_digest[:12]} != "
                f"live {live_digest[:12]}"))
        probe = reopened.begin_session(check_mode="full")
        report = probe.check(mode="full")
        if not report.consistent:
            failures.append(OracleFailure(
                "recovered_consistent", None,
                f"{len(report.violations)} violation(s) after recovery"))
        probe.rollback()
        reopened.close()

        with SchemaManager(features=features,
                           maintenance="recompute") as recompute_manager:
            recompute = SessionDriver(
                "recompute", recompute_manager, failures).run(history)
        with SchemaManager(features=features, maintenance="delta",
                           executor="interpreted") as interpreted_manager:
            interpreted = SessionDriver(
                "interpreted", interpreted_manager, failures).run(history)

        _compare("maintained_vs_recompute", primary, recompute, failures)
        _compare("compiled_vs_interpreted", primary, interpreted, failures)
        return FuzzReport(
            history=history,
            variants={"primary": primary, "recompute": recompute,
                      "interpreted": interpreted},
            failures=failures)
    finally:
        if owns_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
