"""Transactional cures: rollback restores model AND object base.

Regression tests for two runtime bugs:

* ``fill_new_slots`` ignored its ``session`` parameter — fills neither
  joined the caller's session (so rollback could not revert them) nor,
  when no session existed, reached the durable evolution log.
* Cures mutated object slots immediately with no compensation — a
  session that executed a cure and then rolled back restored the schema
  but left the objects converted against a change that never happened.

The cure tests run on both paths, eager and lazy-then-drained (see
:mod:`tests.runtime.test_conversion`).
"""

import pytest

from repro.datalog.terms import Atom
from repro.errors import SessionError
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.obs import Observability
from repro.storage.wal import read_log
from tests.runtime.test_conversion import eager, lazy

SOURCE = """
schema S is
type T is [ x: int; ] end type T;
end schema S;
"""


@pytest.fixture
def world():
    manager = SchemaManager()
    manager.define(SOURCE)
    obj = manager.runtime.create_object("T", {"x": 1})
    tid = obj.tid
    return manager, obj, tid


def _add_attribute(manager, session, tid, name):
    prims = manager.analyzer.primitives(session)
    prims.add_attribute(tid, name, builtin_type("int"))


class TestFillNewSlotsSession:
    """``fill_new_slots`` must run inside the session it is handed."""

    def test_fill_joins_explicit_session_and_rolls_back(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        filled = manager.conversions.fill_new_slots(tid, {"y": 7},
                                                    session=session)
        assert filled == 1
        assert obj.slots["y"] == 7
        session.rollback()
        # The schema change is undone AND the fill is unfilled.
        assert "y" not in dict(manager.model.attributes(tid))
        assert "y" not in obj.slots

    def test_fill_joins_model_active_session(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        # No explicit session argument: the open session is joined.
        manager.conversions.fill_new_slots(tid, {"y": 3})
        assert obj.slots["y"] == 3
        session.rollback()
        assert "y" not in obj.slots

    def test_fill_without_session_reaches_the_evolution_log(self, tmp_path):
        directory = str(tmp_path / "store")
        with SchemaManager.open(directory) as manager:
            manager.define(SOURCE)
            obj = manager.runtime.create_object("T", {"x": 1})
            tid = obj.tid
            session = manager.begin_session()
            _add_attribute(manager, session, tid, "y")
            # Apply the +Slot repair at the model level (constraint (*))
            # but leave the instances unfilled — the fill is the
            # separate, session-less cure under test.
            clid = manager.model.phrep_of(tid)
            domain_rep = manager.runtime._phrep_for_domain(
                session, builtin_type("int"))
            session.add(Atom("Slot", (clid, "y", domain_rep)))
            session.commit()
            log_path = manager.store.wal.path
            before = len([r for r in read_log(log_path).records
                          if r.kind == "commit"])
            manager.conversions.fill_new_slots(tid, {"y": 5})
            after = len([r for r in read_log(log_path).records
                         if r.kind == "commit"])
        # The owned session committed — one more durable commit record.
        assert after == before + 1
        assert obj.slots["y"] == 5

    def test_raising_source_rolls_back_the_session_it_opened(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        clid = manager.model.phrep_of(tid)
        domain_rep = manager.runtime._phrep_for_domain(
            session, builtin_type("int"))
        session.add(Atom("Slot", (clid, "y", domain_rep)))
        session.commit()
        steps = manager.migrations.version_of(tid)
        with pytest.raises(ZeroDivisionError):
            manager.conversions.fill_new_slots(tid, {"y": lambda o: 1 // 0})
        # Pre-fix the fill's own session stayed open: the next session
        # raised SessionAlreadyActiveError (other threads would block).
        assert manager.model.active_session is None
        assert "y" not in obj.slots
        assert manager.migrations.version_of(tid) == steps
        manager.define("schema Next is type N is end type N; "
                       "end schema Next;")


class TestCureRollbackRestoresObjects:
    """Per-object undo entries revert cures on session rollback."""

    cure = staticmethod(eager)

    def test_add_slot_fills_unwound(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        converted = self.cure(manager, "add_slot", tid, "y", 9,
                              session=session)
        assert converted == 1
        assert obj.slots["y"] == 9
        session.rollback()
        assert "y" not in obj.slots
        assert "y" not in dict(manager.model.attributes(tid))

    def test_delete_slot_values_restored(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        removed = self.cure(manager, "delete_slot", tid, "x",
                            session=session)
        assert removed == 1
        assert "x" not in obj.slots
        session.rollback()
        assert obj.slots["x"] == 1

    def test_created_object_discarded_on_rollback(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        fresh = manager.runtime.create_object("T", {"x": 2},
                                              session=session)
        assert manager.runtime.exists(fresh.oid)
        session.rollback()
        assert not manager.runtime.exists(fresh.oid)
        # The pre-existing object is untouched.
        assert manager.runtime.exists(obj.oid)

    def test_deleted_object_restored_on_rollback(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        manager.runtime.delete_object(obj.oid, session=session)
        assert not manager.runtime.exists(obj.oid)
        session.rollback()
        assert manager.runtime.exists(obj.oid)
        assert manager.runtime.get(obj.oid).slots == {"x": 1}
        # The instance index is restored too.
        assert obj in manager.runtime.objects_of(tid)

    def test_delete_all_instances_restored_on_rollback(self, world):
        manager, obj, tid = world
        other = manager.runtime.create_object("T", {"x": 2})
        session = manager.begin_session()
        deleted = manager.conversions.delete_all_instances(
            tid, session=session)
        assert deleted == 2
        assert manager.runtime.count_objects() == 0
        session.rollback()
        assert manager.runtime.count_objects() == 2
        assert manager.runtime.get(other.oid).slots == {"x": 2}

    def test_commit_clears_undo_for_good(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        self.cure(manager, "add_slot", tid, "y", 4, session=session)
        session.commit()
        assert obj.slots["y"] == 4

    def test_record_undo_requires_active_session(self, world):
        manager, obj, tid = world
        session = manager.begin_session()
        session.rollback()
        with pytest.raises(SessionError):
            session.record_undo(lambda: None)


class TestCureRollbackRestoresObjectsLazy:
    """The cure tests above, on the lazy path."""

    cure = staticmethod(lazy)
    test_add_slot_fills_unwound = \
        TestCureRollbackRestoresObjects.test_add_slot_fills_unwound
    test_delete_slot_values_restored = \
        TestCureRollbackRestoresObjects.test_delete_slot_values_restored
    test_commit_clears_undo_for_good = \
        TestCureRollbackRestoresObjects.test_commit_clears_undo_for_good


HIERARCHY = """
schema H is
type T is [ x: int; ] end type T;
type Sub supertype T is [ z: int; ] end type Sub;
end schema H;
"""


def _bes_state(manager):
    """Everything a rolled-back cure must leave as it was at BES."""
    runtime = manager.runtime
    migrations = manager.migrations
    return {
        "edb": manager.model.db.edb.snapshot_codes(),
        "objects": sorted((oid, sorted(obj.slots.items()),
                           obj.schema_version)
                          for oid, obj in runtime._objects.items()),
        "chains": {tid: len(chain)
                   for tid, chain in migrations._steps.items()},
        "handlers": (dict(runtime.handlers._reads),
                     dict(runtime.handlers._writes),
                     dict(runtime.handlers._calls)),
        "debt": manager.obs.metrics.gauge("migration.debt").value,
    }


@pytest.fixture
def hierarchy():
    """Two T and two Sub instances, one pending lazy step on the cone
    (so a cure also replays an older step), and a masking handler."""
    manager = SchemaManager(obs=Observability.create(trace=True))
    manager.define(HIERARCHY)
    for i in range(2):
        manager.runtime.create_object("T", {"x": i})
        manager.runtime.create_object("Sub", {"x": i, "z": i})
    tid = manager.model.type_id("T")
    session = manager.begin_session()
    _add_attribute(manager, session, tid, "w")
    manager.migrations.add_slot(tid, "w", 5, session=session)
    manager.conversions.mask_with_handler(tid, "w", 6, session=session)
    session.commit()
    return manager, tid


@pytest.mark.parametrize("cure", [eager, lazy], ids=["eager", "lazy"])
class TestRollbackRestoresBES:
    """A cure across a subtype cone, rolled back, leaves EDB codes,
    slots and version tags, chain lengths, the handler registry and the
    debt gauge exactly as they were at BES — on both paths."""

    def test_add_slot(self, hierarchy, cure):
        manager, tid = hierarchy
        bes = _bes_state(manager)
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        cure(manager, "add_slot", tid, "y", lambda obj: obj.slots["x"],
             session=session)
        assert all(obj.slots["y"] == obj.slots["x"]
                   for obj in manager.runtime._objects.values())
        session.rollback()
        assert _bes_state(manager) == bes

    def test_delete_slot(self, hierarchy, cure):
        manager, tid = hierarchy
        bes = _bes_state(manager)
        session = manager.begin_session()
        manager.analyzer.primitives(session).delete_attribute(tid, "w")
        cure(manager, "delete_slot", tid, "w", session=session)
        assert manager.runtime.handlers.handled_attrs(tid) == {}
        session.rollback()
        assert _bes_state(manager) == bes


@pytest.mark.parametrize("cure", [eager, lazy], ids=["eager", "lazy"])
def test_a_cure_records_one_undo_entry_per_converted_object(cure):
    """One entry restores an object's slots and version tag together."""
    manager = SchemaManager()
    manager.define(SOURCE)
    for i in range(50):
        manager.runtime.create_object("T", {"x": i})
    tid = manager.model.type_id("T")
    session = manager.begin_session()
    _add_attribute(manager, session, tid, "y")
    before = len(session._undo)
    converted = cure(manager, "add_slot", tid, "y", 0, session=session)
    assert converted == 50
    assert len(session._undo) - before <= converted + 2
    assert manager.migrations.debt() == 0
    session.rollback()
