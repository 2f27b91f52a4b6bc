"""Stress / linearizability: concurrent readers vs. an evolving writer.

Runs with a 10 µs thread switch interval so the interpreter forces
preemption inside the hot paths — races that survive thousands of
context switches across publication, COW privatization, and the writer
lock would be caught here.
"""

import sys
import threading
import time

import pytest

from repro.concurrency import WriterLock
from repro.datalog.terms import Atom, Literal, Variable
from repro.errors import SessionAlreadyActiveError
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.service.stress import StressOutcome, run_stress

SOURCE = """
schema S is
type T is [ x: int; ] end type T;
end schema S;
"""


X, Y, A, D = (Variable(name) for name in "XYAD")


@pytest.fixture(autouse=True)
def tight_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


class TestStressLinearizability:
    def test_readers_see_only_published_snapshots(self):
        outcome = run_stress(sessions=100, readers=4, n_types=10,
                             rollback_every=5, check_every=7)
        assert outcome.writer_error is None
        assert outcome.reader_errors == []
        assert outcome.commits == 80 and outcome.rollbacks == 20
        assert outcome.total_reads > 0
        # Every observed (epoch, digest) pair matches the serial oracle
        # the writer recorded: no torn or half-evolved state ever seen.
        assert outcome.torn_reads() == []
        # Epochs advance monotonically for every reader.
        assert outcome.epochs_monotonic()
        # Every full consistency check a reader ran passed.
        assert outcome.checks_run > 0
        assert outcome.check_failures == 0
        # The live model ends on the last published state.
        assert outcome.converged()
        assert outcome.linearizable

    def test_oracle_covers_every_commit(self):
        outcome = run_stress(sessions=30, readers=2, n_types=8,
                             rollback_every=3)
        # initial snapshot + one publication per commit, nothing else
        assert len(outcome.published) == outcome.commits + 1


def _outcome():
    """A clean run: two reader streams over three published epochs."""
    return StressOutcome(
        sessions=2, commits=2, rollbacks=0,
        published={0: "d0", 1: "d1", 2: "d2"},
        observations=[[(0, "d0"), (1, "d1")], [(1, "d1"), (2, "d2")]],
        survivors={"primary": {"epoch": 2, "digest": "d2"}})


def _fail_over_to_epoch_1(outcome):
    # The failover lost epoch 2: no reader saw it, the survivor ends
    # on epoch 1, and the oracle forgets only what lies above it.
    outcome.observations[1].pop()
    outcome.survivors["primary"] = {"epoch": 1, "digest": "d1"}
    assert outcome.truncate_oracle(1) == 1
    assert outcome.published == {0: "d0", 1: "d1"}


class TestStressVerdicts:
    @pytest.mark.parametrize("mutate, linearizable", [
        (lambda outcome: None, True),
        (lambda outcome: outcome.observations[0].append((2, "d1")), False),
        (lambda outcome: outcome.observations[1].append((1, "d1")), False),
        (lambda outcome: outcome.observations.insert(0, [(2, "d2")]), True),
        (lambda outcome: setattr(outcome, "check_failures", 1), False),
        (lambda outcome: outcome.survivors.update(
            replica={"epoch": 2, "digest": "d1"}), False),
        (lambda outcome: outcome.survivors.update(
            replica={"epoch": 1, "digest": "d1"}), False),
        (lambda outcome: outcome.survivors.clear(), False),
        (_fail_over_to_epoch_1, True),
    ], ids=["clean", "torn-pair", "epoch-back-in-one-stream",
            "epochs-interleave-across-streams", "failed-check",
            "survivor-off-final-digest", "survivor-behind-final-epoch",
            "no-survivor", "truncation-drops-only-epochs-above-bound"])
    def test_each_verdict_flips_linearizable(self, mutate, linearizable):
        outcome = _outcome()
        mutate(outcome)
        assert outcome.linearizable is linearizable


class TestPinnedReadersUnderCopyOnWrite:
    """More reader threads than cores hold pinned epochs and re-read
    them while the writer's sessions copy the buckets they share."""

    READERS = 8
    SESSIONS = 30

    @staticmethod
    def _answers(snapshot, tid):
        db = snapshot.db
        own = frozenset(db.matching(Atom("Attr", (tid, None, None))))
        inherited = frozenset(db.matching(Atom("Attr_i", (None, X, D))))
        joined = frozenset(
            (theta[X], theta[Y], theta[A])
            for theta in db.query([Literal(Atom("SubTypRel_t", (X, Y))),
                                   Literal(Atom("Attr", (Y, A, D)))]))
        return own, inherited, joined

    def test_pinned_answers_never_change(self):
        manager = SchemaManager()
        manager.define(SOURCE)
        model = manager.model
        model.enable_snapshots()
        tid = model.type_id("T")
        sid = model.schema_id("S")
        done = threading.Event()
        errors, mismatches = [], []
        by_epoch, by_epoch_lock = {}, threading.Lock()
        rounds = [0] * self.READERS

        def reader(slot):
            try:
                while True:
                    finished = done.is_set()
                    pinned = model.snapshot()
                    first = self._answers(pinned, tid)
                    with by_epoch_lock:
                        expected = by_epoch.setdefault(pinned.epoch, first)
                    if first != expected:
                        mismatches.append((slot, pinned.epoch, "epoch"))
                    for _ in range(3):
                        if self._answers(pinned, tid) != first:
                            mismatches.append((slot, pinned.epoch, "pin"))
                    rounds[slot] += 1
                    if finished:
                        return
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(repr(exc))

        def writer():
            try:
                for index in range(self.SESSIONS):
                    session = manager.begin_session()
                    prims = manager.analyzer.primitives(session)
                    prims.add_attribute(tid, f"a{index}",
                                        builtin_type("int"))
                    if index % 3 == 0:
                        prims.add_type(sid, f"Sub{index}", supertypes=(tid,))
                    session.commit()
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(repr(exc))
            finally:
                done.set()

        threads = [threading.Thread(target=reader, args=(slot,), daemon=True)
                   for slot in range(self.READERS)]
        threads.append(threading.Thread(target=writer, daemon=True))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []
        assert model.epoch == 1 + self.SESSIONS
        assert all(rounds)
        # The final epoch's answers are the live model's.
        assert by_epoch[model.epoch] == self._answers(model, tid)


class TestWriterLock:
    def test_cross_thread_sessions_serialize(self):
        manager = SchemaManager()
        manager.define(SOURCE)
        manager.model.enable_snapshots()
        tid = manager.model.type_id("T")
        errors = []

        def churn(slot):
            try:
                for index in range(10):
                    session = manager.begin_session()
                    manager.analyzer.primitives(session).add_attribute(
                        tid, f"w{slot}_{index}", builtin_type("int"))
                    session.commit()
            except Exception as exc:  # pragma: no cover
                errors.append(repr(exc))

        threads = [threading.Thread(target=churn, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # The epoch is the commit count: the define, then 4 threads x
        # 10 commits, each serialized and published.
        assert manager.model.epoch == 1 + 4 * 10
        assert manager.model.snapshot().epoch == manager.model.epoch
        attrs = dict(manager.model.attributes(tid))
        assert len(attrs) == 1 + 40

    def test_second_thread_blocks_until_commit(self):
        manager = SchemaManager()
        manager.define(SOURCE)
        entered = threading.Event()
        finished = threading.Event()

        session = manager.begin_session()

        def contender():
            other = manager.begin_session()  # blocks on the writer lock
            entered.set()
            other.rollback()
            finished.set()

        thread = threading.Thread(target=contender, daemon=True)
        thread.start()
        assert not entered.wait(0.1)
        assert session.active
        session.rollback()
        assert finished.wait(5.0)
        thread.join()
        assert manager.model.writer_lock.owner is None

    def test_same_thread_double_begin_still_raises(self):
        manager = SchemaManager()
        manager.define(SOURCE)
        session = manager.begin_session()
        with pytest.raises(SessionAlreadyActiveError):
            manager.begin_session()
        session.rollback()

    def test_lock_wait_is_measured(self):
        lock = WriterLock()
        results = {}

        def holder():
            lock.acquire()
            time.sleep(0.05)
            lock.release()

        def waiter():
            results["waited"] = lock.acquire()
            lock.release()

        hold = threading.Thread(target=holder)
        hold.start()
        time.sleep(0.01)
        wait = threading.Thread(target=waiter)
        wait.start()
        hold.join()
        wait.join()
        assert results["waited"] > 0.0
        assert lock.contended == 1
        assert lock.wait_seconds > 0.0

    def test_release_by_non_owner_is_ignored(self):
        lock = WriterLock()
        lock.acquire()

        def interloper():
            lock.release()  # not the owner: must be a no-op

        thread = threading.Thread(target=interloper)
        thread.start()
        thread.join()
        assert lock.locked
        assert lock.held_by_current_thread()
        lock.release()
        assert not lock.locked
