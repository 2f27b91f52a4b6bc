"""DurableStore recovery, checkpointing, and manager integration."""

import os

import pytest

from repro.errors import SessionError
from repro.datalog.terms import Atom
from repro.manager import SchemaManager
from repro.storage.store import DurableStore
from repro.storage.wal import read_log

SCHEMA = """
schema S is
type T is [ x: int; ] end type T;
end schema S;
"""

MORE = """
schema S2 is
type U is [ y: string; ] end type U;
end schema S2;
"""

THIRD = """
schema S3 is
type V is [ z: int; ] end type V;
end schema S3;
"""


def edb(manager):
    return manager.model.db.edb.snapshot()


class TestOpenAndRecover:
    def test_fresh_directory(self, tmp_path):
        with SchemaManager.open(str(tmp_path / "db")) as manager:
            report = manager.recovery
            assert not report.snapshot_loaded
            assert report.sessions_replayed == 0
            assert manager.check().consistent

    def test_commits_survive_reopen(self, tmp_path):
        directory = str(tmp_path / "db")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
            manager.define(MORE)
            state = edb(manager)
        with SchemaManager.open(directory) as reopened:
            assert reopened.recovery.sessions_replayed == 2
            assert edb(reopened) == state
            assert reopened.check().consistent

    def test_recovery_without_close(self, tmp_path):
        """A manager that is never closed (kill -9) still recovers."""
        directory = str(tmp_path / "db")
        manager = SchemaManager.open(directory)
        manager.define(SCHEMA)
        state = edb(manager)
        manager.store.wal._handle.flush()  # the OS keeps flushed writes
        del manager
        with SchemaManager.open(directory) as reopened:
            assert edb(reopened) == state

    def test_uncommitted_session_discarded(self, tmp_path):
        directory = str(tmp_path / "db")
        manager = SchemaManager.open(directory)
        manager.define(SCHEMA)
        state = edb(manager)
        session = manager.begin_session()
        sid = manager.model.ids.schema()
        session.add(Atom("Schema", (sid, "Phantom")))
        manager.store.wal._handle.flush()
        # crash here: no commit record for the open session
        with SchemaManager.open(directory) as reopened:
            assert reopened.recovery.sessions_discarded == 1
            assert edb(reopened) == state

    def test_rolled_back_session_replay_as_nothing(self, tmp_path):
        directory = str(tmp_path / "db")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
            session = manager.begin_session()
            sid = manager.model.ids.schema()
            session.add(Atom("Schema", (sid, "Phantom")))
            session.rollback()
            state = edb(manager)
        with SchemaManager.open(directory) as reopened:
            assert edb(reopened) == state
            kinds = [kind for kind, _ in reopened.store.log_records()]
            assert "rollback" in kinds

    def test_id_counters_resume_after_recovery(self, tmp_path):
        directory = str(tmp_path / "db")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
            used = {fact.args[0]
                    for fact in manager.model.db.edb.facts("Type")}
        with SchemaManager.open(directory) as reopened:
            fresh = reopened.model.ids.type()
            assert fresh not in used

    def test_session_works_after_recovery(self, tmp_path):
        directory = str(tmp_path / "db")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
        with SchemaManager.open(directory) as reopened:
            reopened.define(MORE)
            assert reopened.check().consistent
        with SchemaManager.open(directory) as third:
            assert third.recovery.sessions_replayed == 2  # no checkpoint yet
            names = {fact.args[1]
                     for fact in third.model.db.edb.facts("Schema")}
            assert {"S", "S2"} <= names


class TestEpoch:
    def test_epoch_counts_commits_across_reopen(self, tmp_path):
        directory = str(tmp_path / "db")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
            session = manager.begin_session()
            session.add(Atom("Schema", (manager.model.ids.schema(), "No")))
            session.rollback()
            manager.define(MORE)
            assert manager.model.epoch == 2
        with SchemaManager.open(directory) as reopened:
            assert reopened.recovery.sessions_replayed == 2
            assert reopened.model.epoch == 2
            assert reopened.snapshot().epoch == 2
            reopened.checkpoint()
            assert reopened.model.epoch == 2      # no session, no epoch
            reopened.define(THIRD)
            assert reopened.snapshot().epoch == 3
        with SchemaManager.open(directory) as third:
            # The count restarts from the sessions past the checkpoint.
            assert third.recovery.sessions_replayed == 1
            assert third.model.epoch == 1


class TestOversizeRecord:
    def test_oversize_op_rolls_back_and_later_commits_survive(
            self, tmp_path, monkeypatch):
        from repro import wire
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4096)
        directory = str(tmp_path / "db")
        big = SCHEMA.replace("x: int;", f"x{'x' * 5000}: int;")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
            with pytest.raises(wire.ProtocolError, match="exceeds"):
                manager.define(big.replace("schema S", "schema Big"))
            assert manager.model.active_session is None
            manager.define(MORE)
            state = edb(manager)
        with SchemaManager.open(directory) as reopened:
            assert reopened.recovery.torn_bytes_truncated == 0
            assert reopened.recovery.sessions_replayed == 2
            assert edb(reopened) == state


class TestCheckpoint:
    def test_checkpoint_folds_log_into_snapshot(self, tmp_path):
        directory = str(tmp_path / "db")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
            manager.checkpoint()
            state = edb(manager)
            assert os.path.exists(os.path.join(directory, "snapshot.json"))
            assert read_log(os.path.join(directory, "wal.log")).records == []
        with SchemaManager.open(directory) as reopened:
            assert reopened.recovery.snapshot_loaded
            assert reopened.recovery.sessions_replayed == 0
            assert edb(reopened) == state

    def test_checkpoint_refused_during_session(self, tmp_path):
        with SchemaManager.open(str(tmp_path / "db")) as manager:
            session = manager.begin_session()
            with pytest.raises(SessionError):
                manager.checkpoint()
            session.rollback()
            manager.checkpoint()  # fine once the session ended

    def test_checkpoint_requires_durable_manager(self):
        with pytest.raises(SessionError):
            SchemaManager().checkpoint()

    def test_replay_is_idempotent_over_checkpoint_crash(self, tmp_path):
        """Snapshot replaced but log not yet reset == both contain the
        committed sessions; replay onto the snapshot must converge."""
        directory = str(tmp_path / "db")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
            state = edb(manager)
            # checkpoint crashed between replace and reset: simulate by
            # writing the snapshot while keeping the log.
            from repro.gom.persistence import save_to_file
            save_to_file(manager.model, manager.store.snapshot_path)
        with SchemaManager.open(directory) as reopened:
            assert reopened.recovery.snapshot_loaded
            assert reopened.recovery.sessions_replayed == 1
            assert edb(reopened) == state
            assert reopened.check().consistent


class TestInstrumentation:
    def test_session_stats_count_log_writes(self, tmp_path):
        with SchemaManager.open(str(tmp_path / "db")) as manager:
            manager.define(SCHEMA)
            stats = manager.last_session_stats()
            assert stats.wal_records >= 3   # bes + ops + commit
            assert stats.wal_fsyncs == 1    # exactly the commit record
            assert stats.wal_bytes > 0
            assert stats.as_dict()["wal_fsyncs"] == 1

    def test_recovery_report_carries_replay_stats(self, tmp_path):
        directory = str(tmp_path / "db")
        with SchemaManager.open(directory) as manager:
            manager.define(SCHEMA)
        with SchemaManager.open(directory) as reopened:
            stats = reopened.recovery.stats
            assert stats.replay_sessions == 1
            assert stats.replay_records >= 3
            assert stats.replay_seconds > 0
            assert "recovery replay" in stats.describe()
            assert "recovered from" in reopened.recovery.describe()

    def test_in_memory_manager_logs_nothing(self):
        manager = SchemaManager()
        manager.define(SCHEMA)
        stats = manager.last_session_stats()
        assert stats.wal_records == 0
        assert stats.wal_fsyncs == 0
        assert manager.recovery is None
        manager.close()  # no-op


class TestHistory:
    def test_protocol_decisions_recorded_as_notes(self, tmp_path):
        from repro.gom.builtins import builtin_type
        with SchemaManager.open(str(tmp_path / "db")) as manager:
            manager.define(SCHEMA)
            sid = manager.model.schema_id("S")
            tid = manager.model.type_id("T", sid)

            def add_op_without_code(session):
                prims = manager.analyzer.primitives(session)
                prims.add_operation(tid, "pending", (),
                                    builtin_type("int"))

            result = manager.evolve(add_op_without_code)
            assert result.outcome in ("repaired", "rolled-back")
            kinds = [kind for kind, _ in manager.store.log_records()]
            assert "note" in kinds
