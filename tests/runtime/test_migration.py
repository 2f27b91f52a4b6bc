"""The online migration engine: lazy conversion + impact advisor.

Covers the four tentpole pieces: version-tagged objects with O(1)
lazy cures, convert-on-touch through the runtime entry points, the
throttled background migrator (including live snapshot readers and
durable recovery), and the evolution impact advisor.
"""

import threading

import pytest

from repro.datalog.terms import Atom
from repro.errors import ConversionError, SessionError
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.runtime.migration import EAGER_THRESHOLD

SOURCE = """
schema S is
type T is
  [ x: int; ]
operations
  declare double_x : -> int;
implementation
  define double_x() is begin return self.x * 2; end define;
end type T;
type Sub supertype T is end type Sub;
end schema S;
"""


@pytest.fixture
def manager():
    manager = SchemaManager()
    manager.define(SOURCE)
    return manager


def _add_attribute(manager, session, tid, name, domain="int"):
    prims = manager.analyzer.primitives(session)
    prims.add_attribute(tid, name, builtin_type(domain))


def _lazy_add(manager, tid, attr, source, **kwargs):
    """add_attribute + lazy cure in one committed session; returns debt."""
    session = manager.begin_session()
    _add_attribute(manager, session, tid, attr)
    debt = manager.migrations.add_slot(tid, attr, source,
                                       session=session, **kwargs)
    session.commit()
    return debt


class TestVersionTags:
    def test_objects_stamped_at_creation(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        assert obj.schema_version == 0
        tid = obj.tid
        _lazy_add(manager, tid, "y", 0)
        assert manager.migrations.version_of(tid) == 1
        fresh = manager.runtime.create_object("T", {"x": 2, "y": 3})
        assert fresh.schema_version == 1
        # The fresh object is born converted; the old one owes a step.
        assert manager.migrations.debt() == 1
        assert manager.migrations.stale_objects() == [obj]

    def test_lazy_cure_commits_without_visiting_objects(self, manager):
        objects = [manager.runtime.create_object("T", {"x": i})
                   for i in range(20)]
        tid = objects[0].tid
        debt = _lazy_add(manager, tid, "y", 7)
        assert debt == 20
        # The schema is consistent (Slot facts inserted) but no object
        # was touched — all 20 still carry only their original slot.
        assert manager.check().consistent
        assert all(obj.slots == {"x": i}
                   for i, obj in enumerate(objects))
        assert manager.migrations.debt() == 20

    def test_lazy_add_requires_schema_attribute(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        with pytest.raises(ConversionError):
            manager.migrations.add_slot(obj.tid, "nope", 0)


class TestConvertOnTouch:
    def test_get_attr_converts(self, manager):
        obj = manager.runtime.create_object("T", {"x": 5})
        _lazy_add(manager, obj.tid, "y", lambda o: o.slots["x"] + 1)
        assert manager.runtime.get_attr(obj, "y") == 6
        assert obj.schema_version == 1
        assert manager.migrations.debt() == 0

    def test_set_attr_converts_first(self, manager):
        obj = manager.runtime.create_object("T", {"x": 5})
        _lazy_add(manager, obj.tid, "y", 0)
        # The write lands *after* the migration, so it is not clobbered.
        manager.runtime.set_attr(obj, "y", 9)
        assert obj.slots["y"] == 9
        assert obj.schema_version == 1

    def test_call_converts(self, manager):
        obj = manager.runtime.create_object("T", {"x": 5})
        _lazy_add(manager, obj.tid, "y", 1)
        assert manager.runtime.call(obj, "double_x") == 10
        assert obj.slots["y"] == 1

    def test_operation_valued_source(self, manager):
        obj = manager.runtime.create_object("T", {"x": 4})
        _lazy_add(manager, obj.tid, "y", "double_x",
                  value_is_operation=True)
        assert manager.runtime.get_attr(obj, "y") == 8

    def test_chain_applies_in_order(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        tid = obj.tid
        _lazy_add(manager, tid, "y", 10)
        # Step 2's source reads the slot step 1 fills — replay order is
        # observable, not just the end state.
        _lazy_add(manager, tid, "z", lambda o: o.slots["y"] + 1)
        assert manager.migrations.version_of(tid) == 2
        assert manager.runtime.get_attr(obj, "z") == 11
        assert obj.slots["y"] == 10
        assert obj.schema_version == 2

    def test_chain_with_lazy_delete(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        tid = obj.tid
        _lazy_add(manager, tid, "y", 10)
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        prims.delete_attribute(tid, "y")
        manager.migrations.delete_slot(tid, "y", session=session)
        session.commit()
        assert manager.migrations.version_of(tid) == 2
        # One touch replays both steps: +y then -y nets out to nothing.
        assert manager.runtime.get_attr(obj, "x") == 1
        assert "y" not in obj.slots
        assert obj.schema_version == 2
        assert manager.migrations.debt() == 0
        assert manager.check().consistent

    def test_touch_preserves_existing_values(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        session = manager.begin_session()
        _add_attribute(manager, session, obj.tid, "y")
        manager.runtime.set_attr(obj, "y", 99)
        manager.migrations.add_slot(obj.tid, "y", 0, session=session)
        session.commit()
        assert manager.runtime.get_attr(obj, "y") == 99

    def test_subtype_instances_migrate_too(self, manager):
        parent = manager.runtime.create_object("T", {"x": 1})
        child = manager.runtime.create_object("Sub", {"x": 2})
        debt = _lazy_add(manager, parent.tid, "y", 7)
        assert debt == 2
        assert manager.runtime.get_attr(child, "y") == 7
        assert manager.runtime.get_attr(parent, "y") == 7
        assert manager.migrations.debt() == 0
        assert manager.check().consistent


class TestRollback:
    def test_registration_rolls_back(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        tid = obj.tid
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        manager.migrations.add_slot(tid, "y", 0, session=session)
        assert manager.migrations.version_of(tid) == 1
        session.rollback()
        assert manager.migrations.version_of(tid) == 0
        assert manager.migrations.debt() == 0
        assert manager.check().consistent

    def test_touched_object_rolls_back_with_registration(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        tid = obj.tid
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        manager.migrations.add_slot(tid, "y", 5, session=session)
        # Touch inside the same session: converted, tag bumped …
        assert manager.runtime.get_attr(obj, "y") == 5
        assert obj.schema_version == 1
        session.rollback()
        # … and both the slot and the tag are restored.
        assert "y" not in obj.slots
        assert obj.schema_version == 0

    def test_touch_in_later_session_rolls_back_to_stale(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        _lazy_add(manager, obj.tid, "y", 5)
        session = manager.begin_session()
        assert manager.runtime.get_attr(obj, "y") == 5
        session.rollback()
        # The registration is committed; the touch was not.
        assert "y" not in obj.slots
        assert obj.schema_version == 0
        assert manager.migrations.debt() == 1
        # Touch again, outside any session: converts for good.
        assert manager.runtime.get_attr(obj, "y") == 5
        assert manager.migrations.debt() == 0


class TestBackgroundMigrator:
    def test_drains_to_zero(self, manager):
        objects = [manager.runtime.create_object("T", {"x": i})
                   for i in range(50)]
        tid = objects[0].tid
        _lazy_add(manager, tid, "y", lambda o: o.slots["x"] * 2)
        migrator = manager.migrations.background(batch_size=16)
        drained = migrator.drain()
        assert drained == 50
        assert migrator.batches == 4  # 16 + 16 + 16 + 2
        assert manager.migrations.debt() == 0
        assert all(obj.slots["y"] == obj.slots["x"] * 2
                   for obj in objects)

    def test_run_once_respects_batch_size(self, manager):
        for i in range(10):
            manager.runtime.create_object("T", {"x": i})
        tid = manager.model.type_id("T")
        _lazy_add(manager, tid, "y", 0)
        migrator = manager.migrations.background(batch_size=4)
        assert migrator.run_once() == 4
        assert manager.migrations.debt() == 6

    def test_drain_with_live_snapshot_readers(self, manager):
        objects = [manager.runtime.create_object("T", {"x": i})
                   for i in range(60)]
        tid = objects[0].tid
        _lazy_add(manager, tid, "y", 1)
        service = manager.serve(readers=2)
        stop = threading.Event()
        epochs = []

        def reader():
            while not stop.is_set():
                epochs.append(service.submit(lambda rs: rs.epoch).result())
        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            migrator = manager.migrations.background(batch_size=8)
            migrator.start()
            migrator.join(timeout=30)
        finally:
            stop.set()
            thread.join(timeout=10)
            service.close()
        assert manager.migrations.debt() == 0
        assert epochs  # readers were serviced throughout the drain

    def test_pause_and_resume(self, manager):
        for i in range(12):
            manager.runtime.create_object("T", {"x": i})
        tid = manager.model.type_id("T")
        _lazy_add(manager, tid, "y", 0)
        migrator = manager.migrations.background(batch_size=4)
        migrator.pause()
        migrator.start()
        # Paused: nothing drains.
        assert migrator.converted == 0
        assert manager.migrations.debt() == 12
        migrator.resume()
        migrator.join(timeout=30)
        assert manager.migrations.debt() == 0
        assert migrator.converted == 12

    def test_stop_interrupts_drain(self, manager):
        for i in range(8):
            manager.runtime.create_object("T", {"x": i})
        tid = manager.model.type_id("T")
        _lazy_add(manager, tid, "y", 0)
        migrator = manager.migrations.background(batch_size=4)
        migrator.pause()
        migrator.start()
        migrator.stop()
        migrator.join(timeout=30)
        assert manager.migrations.debt() == 8  # stopped before converting

    def test_metrics_family(self):
        from repro.obs import Observability
        manager = SchemaManager(obs=Observability.create(trace=True))
        manager.define(SOURCE)
        for i in range(6):
            manager.runtime.create_object("T", {"x": i})
        tid = manager.model.type_id("T")
        _lazy_add(manager, tid, "y", 0)
        metrics = manager.obs.metrics
        assert metrics.counter("migration.registered").value == 6
        assert metrics.gauge("migration.debt").value == 6
        obj = manager.runtime.objects_of(tid)[0]
        manager.runtime.get_attr(obj, "y")
        assert metrics.counter("migration.converted").value == 1
        migrator = manager.migrations.background(batch_size=4)
        migrator.drain()
        assert metrics.counter("migration.background_converted").value == 5
        assert metrics.counter("migration.batches").value == 2
        assert metrics.gauge("migration.debt").value == 0

    def test_debt_gauge_moves_without_scanning_objects(self, monkeypatch):
        """Telemetry does no O(base) work: registering, touching and
        rolling back move the gauge by arithmetic (in object-steps),
        never by a scan; a drain brings it back to zero."""
        from repro.obs import Observability
        from repro.runtime.migration import MigrationEngine
        manager = SchemaManager(obs=Observability.create(trace=True))
        manager.define(SOURCE)
        for i in range(6):
            manager.runtime.create_object("T", {"x": i})
        tid = manager.model.type_id("T")
        gauge = manager.obs.metrics.gauge("migration.debt")

        def scan(*_args, **_kwargs):
            raise AssertionError("telemetry scanned the object base")
        with monkeypatch.context() as patch:
            patch.setattr(MigrationEngine, "stale_objects", scan)
            patch.setattr(MigrationEngine, "_iter_stale", scan)
            _lazy_add(manager, tid, "y", 0)
            assert gauge.value == 6
            obj = manager.runtime.objects_of(tid)[0]
            session = manager.begin_session()
            manager.runtime.get_attr(obj, "y")
            assert gauge.value == 5
            _add_attribute(manager, session, tid, "z")
            manager.migrations.add_slot(tid, "z", 0, session=session)
            assert gauge.value == 11  # 5 objects owe y, all 6 owe z
            session.rollback()
            assert gauge.value == 6
            _lazy_add(manager, tid, "z", 0)
            assert gauge.value == 12
        # Two batches convert all six; capped before the empty batch
        # that would zero the gauge outright.
        manager.migrations.background(batch_size=4).drain(max_batches=2)
        assert manager.migrations.debt() == 0
        assert gauge.value == 0

    def test_durable_drain_recovers(self, tmp_path):
        directory = str(tmp_path / "store")
        with SchemaManager.open(directory) as manager:
            manager.define(SOURCE)
            for i in range(10):
                manager.runtime.create_object("T", {"x": i})
            tid = manager.model.type_id("T")
            _lazy_add(manager, tid, "y", 0)
            migrator = manager.migrations.background(batch_size=4)
            migrator.run_once()  # half-drained: a crash point
        # Reopen: WAL replay reconverges on the committed schema (the
        # lazy Slot fact included); objects are transient, so the base
        # repopulates stale and the migration chain re-registers.
        with SchemaManager.open(directory) as reopened:
            assert reopened.check().consistent
            tid = reopened.model.type_id("T")
            clid = reopened.model.phrep_of(tid)
            slot_facts = list(reopened.model.db.matching(
                Atom("Slot", (clid, "y", None))))
            assert len(slot_facts) == 1


class TestImpactAdvisor:
    def test_added_attribute_impact(self, manager):
        objects = [manager.runtime.create_object("T", {"x": i})
                   for i in range(3)]
        tid = objects[0].tid
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        report = manager.advise(session)
        assert len(report.impacts) == 1
        impact = report.impacts[0]
        assert (impact.type_name, impact.attr, impact.change) == \
            ("T", "y", "added")
        assert impact.instances == 3
        assert impact.pending == 3
        # Small population: eager conversion is the cheapest cure.
        assert impact.recommended.cure == "eager-convert"
        assert impact.recommended.session_work == 3
        session.rollback()

    def test_removed_attribute_reports_dependent_methods(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        prims.delete_attribute(obj.tid, "x")
        report = manager.advise(session)
        impact = report.impacts[0]
        assert impact.change == "removed"
        # double_x reads self.x — the advisor must name it before EES.
        assert "T.double_x" in impact.affected_methods
        assert all(option.cure != "mask" for option in impact.options)
        session.rollback()

    def test_large_population_recommends_lazy(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        tid = obj.tid
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        impact = manager.migrations._impact(tid, "y", "added")
        assert impact.recommended.cure == "eager-convert"
        # Force the pending count over the threshold: ranking flips.
        options = manager.migrations._options("added",
                                              EAGER_THRESHOLD + 1)
        assert options[0].cure == "lazy-convert"
        session.rollback()

    def test_advise_uses_active_session(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        session = manager.begin_session()
        _add_attribute(manager, session, obj.tid, "y")
        report = manager.advise()  # joins the model's active session
        assert report.impacts[0].attr == "y"
        assert "eager-convert" in report.describe()
        session.rollback()

    def test_advise_requires_open_session(self, manager):
        with pytest.raises(SessionError):
            manager.advise()

    def test_describe_mentions_debt(self, manager):
        obj = manager.runtime.create_object("T", {"x": 1})
        _lazy_add(manager, obj.tid, "y", 0)
        session = manager.begin_session()
        report = manager.advise(session)
        assert "migration debt: 1" in report.describe()
        session.rollback()


class TestManagerSurface:
    def test_migrations_property(self, manager):
        assert manager.migrations is manager.runtime.migrations

    def test_session_label_lands_in_trace(self):
        from repro.obs import Observability
        manager = SchemaManager(obs=Observability.create(trace=True))
        manager.define(SOURCE)
        manager.runtime.create_object("T", {"x": 1})
        tid = manager.model.type_id("T")
        _lazy_add(manager, tid, "y", 0)
        manager.migrations.background(batch_size=8).drain()
        labels = [span.attrs.get("label")
                  for span in manager.obs.tracer.spans()
                  if span.name == "session"]
        assert "migration.batch" in labels
