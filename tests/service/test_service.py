"""SchemaService units: pooled reads, batches, epochs, lifecycle."""

import threading

import pytest

from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.obs import Observability
from repro.gom.model import SchemaSnapshot
from repro.service import SchemaService

SOURCE = """
schema S is
type T is [ x: int; ] end type T;
end schema S;
"""

#: The epoch is the committed-session count; the fixture commits one.
FIXTURE_COMMITS = 1


@pytest.fixture
def manager():
    manager = SchemaManager()
    manager.define(SOURCE)
    return manager


def _add_attribute(manager, session, tid, name):
    manager.analyzer.primitives(session).add_attribute(
        tid, name, builtin_type("int"))


class TestReads:
    def test_read_returns_the_request_result(self, manager):
        with manager.serve(readers=2) as service:
            assert service.read(lambda rs: rs.type_name(
                rs.type_id("T"))) == "T"

    def test_reads_run_on_pool_threads(self, manager):
        with manager.serve(readers=2) as service:
            worker = service.read(lambda rs: threading.current_thread().name)
            assert worker.startswith("schema-reader")
            assert worker != threading.current_thread().name

    def test_requests_receive_the_published_snapshot(self, manager):
        with manager.serve(readers=1) as service:
            snapshot = service.read(lambda snap: snap)
            assert isinstance(snapshot, SchemaSnapshot)
            assert snapshot is manager.model.snapshot()
            tid = snapshot.type_id("T")
            assert snapshot.attributes(tid) == [("x", builtin_type("int"))]
            assert snapshot.is_subtype(tid, tid)
            assert snapshot.check().consistent
            assert snapshot.age_seconds() >= 0.0

    def test_submit_returns_a_future(self, manager):
        with manager.serve(readers=2) as service:
            future = service.submit(lambda rs: rs.epoch)
            assert future.result() == FIXTURE_COMMITS

    def test_batch_pins_one_epoch(self, manager):
        with manager.serve(readers=4) as service:
            epochs = service.batch([(lambda rs: rs.epoch)
                                    for _ in range(16)])
            assert len(set(epochs)) == 1

    def test_batch_preserves_request_order(self, manager):
        with manager.serve(readers=4) as service:
            results = service.batch([
                (lambda rs, i=i: i) for i in range(10)])
            assert results == list(range(10))


class TestWrites:
    def test_evolve_publishes_the_next_epoch(self, manager):
        with manager.serve(readers=2) as service:
            tid = service.read(lambda rs: rs.type_id("T"))
            result = service.evolve(
                lambda session: _add_attribute(manager, session, tid, "y"))
            assert result.succeeded
            assert result.epoch == FIXTURE_COMMITS + 1
            attrs = service.read(lambda rs: dict(rs.attributes(tid)))
            assert set(attrs) == {"x", "y"}

    def test_define_through_the_service(self, manager):
        with manager.serve(readers=1) as service:
            service.define("""
schema S2 is
type U is [ y: int; ] end type U;
end schema S2;
""")
            assert service.read(lambda rs: rs.type_id("U")) is not None
            assert service.epoch == FIXTURE_COMMITS + 1


class TestLifecycle:
    def test_requires_at_least_one_reader(self, manager):
        with pytest.raises(ValueError):
            SchemaService(manager, readers=0)

    def test_closed_service_refuses_reads(self, manager):
        service = manager.serve(readers=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.read(lambda rs: rs.epoch)
        with pytest.raises(RuntimeError):
            service.batch([lambda rs: rs.epoch])

    def test_close_is_idempotent(self, manager):
        service = manager.serve(readers=1)
        service.close()
        service.close()


class TestMetrics:
    def test_read_metrics_recorded(self):
        obs = Observability.create(metrics=True)
        manager = SchemaManager(obs=obs)
        manager.define(SOURCE)
        with manager.serve(readers=2) as service:
            for _ in range(4):
                service.read(lambda rs: rs.epoch)
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["service.reads"] == 4
        assert snapshot["histograms"]["service.read_ms"]["count"] == 4
        assert snapshot["histograms"]["service.snapshot_age_ms"][
            "count"] >= 4
        assert snapshot["counters"]["snapshot.published"] >= 1
