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
from repro.errors import SessionAlreadyActiveError
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.service.stress import run_stress

SOURCE = """
schema S is
type T is [ x: int; ] end type T;
end schema S;
"""


@pytest.fixture(autouse=True)
def tight_switch_interval():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


class TestStressLinearizability:
    def test_readers_see_only_published_snapshots(self):
        outcome = run_stress(n_readers=4, n_sessions=100, n_types=10,
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
        assert outcome.linearizable

    def test_oracle_covers_every_commit(self):
        outcome = run_stress(n_readers=2, n_sessions=30, n_types=8,
                             rollback_every=3)
        # initial snapshot + one publication per commit, nothing else
        assert len(outcome.published) == outcome.commits + 1


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
