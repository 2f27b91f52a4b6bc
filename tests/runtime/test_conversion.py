"""Unit tests for conversion routines (§3.5 cures).

The add/delete classes run on both cure paths: the eager
``manager.conversions`` routines, and the lazy ``manager.migrations``
registration followed by a drain of the session — which is what the
eager cure is made of, so both must leave the same object base.
"""

import pytest

from repro.errors import ConversionError, GomTypeError
from repro.datalog.terms import Atom
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.workloads.carschema import (
    car_schema_ids,
    define_car_schema,
    instantiate_paper_objects,
)

STRING = builtin_type("string")


@pytest.fixture
def world():
    manager = SchemaManager()
    result = define_car_schema(manager)
    objects = instantiate_paper_objects(manager)
    return manager, result, objects


def eager(manager, name, *args, **kwargs):
    """Run the eager cure *name* (``add_slot`` / ``delete_slot``)."""
    return getattr(manager.conversions, name)(*args, **kwargs)


def lazy(manager, name, *args, **kwargs):
    """Register the lazy cure *name*, then convert its debt at once."""
    debt = getattr(manager.migrations, name)(*args, **kwargs)
    manager.migrations.drain_in_session(manager.model.active_session)
    return debt


def slot_violations(manager):
    """The constraint-(*) violations the open or committed state has."""
    session = manager.model.active_session
    report = session.check() if session is not None else manager.check()
    return [v for v in report.violations
            if v.constraint.name in ("slot_exists", "slot_has_attr")]


def add_fuel_type_attr(manager, result):
    ids = car_schema_ids(result)
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    prims.add_attribute(ids["tid4"], "fuelType", STRING)
    return session, ids


class TestAddSlot:
    cure = staticmethod(eager)

    def test_default_value_conversion(self, world):
        manager, result, objects = world
        session, ids = add_fuel_type_attr(manager, result)
        converted = self.cure(manager, "add_slot",
                              ids["tid4"], "fuelType", "leaded",
                              session=session)
        assert converted == 1
        session.commit()
        assert objects["Car"].slots["fuelType"] == "leaded"
        assert manager.check().consistent

    def test_per_object_callable(self, world):
        manager, result, objects = world
        session, ids = add_fuel_type_attr(manager, result)
        self.cure(
            manager, "add_slot", ids["tid4"], "fuelType",
            lambda car: "unleaded" if car.slots["maxspeed"] > 150 else
            "leaded",
            session=session)
        session.commit()
        assert objects["Car"].slots["fuelType"] == "unleaded"

    def test_operation_as_value_source(self, world):
        """The paper's third option: an operation on the old instances."""
        manager, result, objects = world
        ids = car_schema_ids(result)
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        prims.add_operation(
            ids["tid4"], "guessFuel", (), STRING,
            code_text='guessFuel() is begin'
                      ' if (self.maxspeed > 150.0)'
                      ' begin return "unleaded"; end'
                      ' else begin return "leaded"; end end')
        prims.add_attribute(ids["tid4"], "fuelType", STRING)
        self.cure(manager, "add_slot", ids["tid4"], "fuelType",
                  "guessFuel", session=session, value_is_operation=True)
        session.commit()
        assert objects["Car"].slots["fuelType"] == "unleaded"
        assert manager.check().consistent

    def test_attr_must_exist_first(self, world):
        manager, result, objects = world
        ids = car_schema_ids(result)
        with pytest.raises(ConversionError):
            self.cure(manager, "add_slot", ids["tid4"], "ghost", "x")

    def test_uninstantiated_type_has_nothing_to_convert(self, world):
        manager, result, objects = world
        ids = car_schema_ids(result)
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        lonely = prims.add_type(ids["sid1"], "Lonely")
        prims.add_attribute(lonely, "x", STRING)
        if self.cure is eager:
            with pytest.raises(ConversionError):
                eager(manager, "add_slot", lonely, "x", "v",
                      session=session)
        else:
            assert lazy(manager, "add_slot", lonely, "x", "v",
                        session=session) == 0
        session.rollback()

    def test_supertype_cure_covers_the_instantiated_subtype(self, world):
        """Location and its subtype City have one instance each: the
        cure fills both and leaves constraint (*) satisfied."""
        manager, result, objects = world
        ids = car_schema_ids(result)
        session = manager.begin_session()
        manager.analyzer.primitives(session).add_attribute(
            ids["tid2"], "region", STRING)
        converted = self.cure(manager, "add_slot", ids["tid2"], "region",
                              "south", session=session)
        assert converted == 2
        assert slot_violations(manager) == []
        session.commit()
        assert objects["Location"].slots["region"] == "south"
        assert objects["City"].slots["region"] == "south"

    def test_constant_outside_the_domain_is_refused_up_front(self, world):
        manager, result, objects = world
        ids = car_schema_ids(result)
        session = manager.begin_session()
        manager.analyzer.primitives(session).add_attribute(
            ids["tid4"], "doors", builtin_type("int"))
        clid = manager.model.phrep_of(ids["tid4"])
        with pytest.raises(GomTypeError):
            self.cure(manager, "add_slot", ids["tid4"], "doors", "four",
                      session=session)
        # Refused before any Slot fact or step was registered.
        assert not list(manager.model.db.matching(
            Atom("Slot", (clid, "doors", None))))
        assert manager.migrations.version_of(ids["tid4"]) == 0
        assert "doors" not in objects["Car"].slots
        session.rollback()

    def test_callable_value_outside_the_domain_is_not_stored(self, world):
        manager, result, objects = world
        ids = car_schema_ids(result)
        session = manager.begin_session()
        manager.analyzer.primitives(session).add_attribute(
            ids["tid4"], "doors", builtin_type("int"))
        with pytest.raises(GomTypeError):
            self.cure(manager, "add_slot", ids["tid4"], "doors",
                      lambda car: "four", session=session)
        assert "doors" not in objects["Car"].slots
        session.rollback()


class TestDeleteSlot:
    cure = staticmethod(eager)

    def test_delete_slot_and_values(self, world):
        manager, result, objects = world
        ids = car_schema_ids(result)
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        prims.delete_attribute(ids["tid4"], "maxspeed")
        removed = self.cure(manager, "delete_slot", ids["tid4"], "maxspeed",
                            session=session)
        assert removed == 1
        session.commit()
        assert "maxspeed" not in objects["Car"].slots
        assert manager.check().consistent

    def test_delete_slot_of_uninstantiated_type(self, world):
        manager, result, objects = world
        ids = car_schema_ids(result)
        ghost = manager.model.ids.type()
        assert self.cure(manager, "delete_slot", ghost, "x") == 0

    def test_supertype_cure_covers_the_instantiated_subtype(self, world):
        manager, result, objects = world
        ids = car_schema_ids(result)
        session = manager.begin_session()
        manager.analyzer.primitives(session).add_attribute(
            ids["tid2"], "region", STRING)
        self.cure(manager, "add_slot", ids["tid2"], "region", "south",
                  session=session)
        session.commit()
        session = manager.begin_session()
        manager.analyzer.primitives(session).delete_attribute(
            ids["tid2"], "region")
        removed = self.cure(manager, "delete_slot", ids["tid2"], "region",
                            session=session)
        assert removed == 2
        assert slot_violations(manager) == []
        session.commit()
        assert "region" not in objects["Location"].slots
        assert "region" not in objects["City"].slots


class TestAddSlotLazy(TestAddSlot):
    cure = staticmethod(lazy)


class TestDeleteSlotLazy(TestDeleteSlot):
    cure = staticmethod(lazy)


class TestBruteForceCure:
    def test_delete_all_instances(self, world):
        manager, result, objects = world
        ids = car_schema_ids(result)
        count = manager.conversions.delete_all_instances(ids["tid4"])
        assert count == 1
        assert manager.model.phrep_of(ids["tid4"]) is None
        assert manager.check().consistent

    def test_fill_new_slots_after_repair(self, world):
        manager, result, objects = world
        session, ids = add_fuel_type_attr(manager, result)
        # Apply the +Slot repair at the model level (as the protocol
        # does), then ask the runtime to fill the values.
        report = session.check()
        assert not report.consistent
        repairs = session.repairs(report.violations[0])
        slot_repair = next(
            er for er in repairs
            if er.repair.kind == "validate-conclusion"
            and not er.repair.requires_user_input())
        session.apply_repair(slot_repair.repair)
        filled = manager.conversions.fill_new_slots(
            ids["tid4"], {"fuelType": "leaded"}, session=session)
        assert filled == 1
        session.commit()
        assert objects["Car"].slots["fuelType"] == "leaded"
