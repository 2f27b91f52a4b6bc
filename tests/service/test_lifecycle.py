"""Service lifecycle: restarts, close races, and snapshot pinning.

The sweep behind these tests: ``submit()``/``batch()`` used to check
``_closed`` and then touch the pool, so a concurrent ``close()`` made
them raise the executor's own RuntimeError instead of the service's
clean "closed" error; and the interaction of pinned read sessions with
``serve()`` restarts was never pinned down.
"""

import threading
import time

import pytest

from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager

SOURCE = """
schema S is
type T is [ x: int; ] end type T;
end schema S;
"""


@pytest.fixture
def manager():
    manager = SchemaManager()
    manager.define(SOURCE)
    return manager


def _add_attribute(manager, session, tid, name):
    manager.analyzer.primitives(session).add_attribute(
        tid, name, builtin_type("int"))


class TestClosedService:
    def test_submit_after_close_raises_cleanly(self, manager):
        service = manager.serve(readers=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(lambda rs: rs.epoch)

    def test_read_after_close_raises_cleanly(self, manager):
        service = manager.serve(readers=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.read(lambda rs: rs.epoch)

    def test_batch_after_close_raises_cleanly(self, manager):
        service = manager.serve(readers=2)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.batch([lambda rs: rs.epoch])

    def test_serial_check_still_works_after_close(self, manager):
        # The check never touches the pool; closing the service does
        # not invalidate the (immutable) snapshot it reads.
        service = manager.serve(readers=2)
        service.close()
        assert service.check().consistent

    def test_close_is_idempotent(self, manager):
        service = manager.serve(readers=1)
        service.close()
        service.close()

    def test_pool_shutdown_race_surfaces_the_clean_error(self, manager):
        # Force the race the _closed flag cannot cover: the pool is
        # already down but the flag is observed stale.
        service = manager.serve(readers=1)
        service._pool.shutdown(wait=True)
        with pytest.raises(RuntimeError, match="schema service is closed"):
            service.submit(lambda rs: rs.epoch)

    def test_concurrent_close_never_leaks_executor_errors(self, manager):
        # Hammer submit() from one thread while close() lands in
        # another; every failure must be the service's own message.
        service = manager.serve(readers=2)
        errors = []

        def reader():
            for _ in range(2000):
                try:
                    service.submit(lambda rs: rs.epoch).result()
                except RuntimeError as exc:
                    errors.append(str(exc))
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.01)
        service.close()
        thread.join()
        assert all("schema service is closed" in err for err in errors)


class TestRestart:
    def test_double_serve_shares_snapshots(self, manager):
        with manager.serve(readers=1) as first, \
                manager.serve(readers=1) as second:
            assert first.read(lambda rs: rs.epoch) == \
                second.read(lambda rs: rs.epoch)

    def test_pinned_session_survives_close_and_restart(self, manager):
        service = manager.serve(readers=2)
        pinned = service.read(lambda snapshot: snapshot)
        old_epoch = pinned.epoch
        tid = pinned.type_id("T")
        service.close()

        result = manager.evolve(
            lambda session: _add_attribute(manager, session, tid, "y"))
        assert result.succeeded

        with manager.serve(readers=2) as fresh:
            new_attrs = fresh.read(lambda rs: dict(rs.attributes(tid)))
            assert set(new_attrs) == {"x", "y"}
            # The pinned snapshot still serves its original epoch's image.
            assert pinned.epoch == old_epoch
            assert set(dict(pinned.attributes(tid))) == {"x"}

    def test_restarted_service_reads_the_latest_epoch(self, manager):
        service = manager.serve(readers=1)
        tid = service.read(lambda rs: rs.type_id("T"))
        service.close()
        manager.evolve(
            lambda session: _add_attribute(manager, session, tid, "y"))
        with manager.serve(readers=1) as fresh:
            assert fresh.read(lambda rs: rs.epoch) == manager.model.epoch


class TestCloseWaits:
    def test_close_waits_for_in_flight_reads(self, manager):
        service = manager.serve(readers=1)
        release = threading.Event()
        entered = threading.Event()

        def slow_read(rs):
            entered.set()
            release.wait(timeout=5.0)
            return rs.epoch

        future = service.submit(slow_read)
        assert entered.wait(timeout=5.0)
        closer = threading.Thread(target=service.close,
                                  kwargs={"wait": True})
        closer.start()
        time.sleep(0.02)
        assert closer.is_alive()  # close(wait=True) blocks on the read
        release.set()
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        assert future.result(timeout=5.0) == 1
