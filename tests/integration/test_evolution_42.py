"""Integration: the §4 evolution scenarios (experiments E7 and E8)."""

import pytest

from repro.datalog.terms import Atom
from repro.manager import SchemaManager
from repro.versioning import VersionGraph
from repro.workloads.carschema import (
    car_schema_ids,
    define_car_schema,
    instantiate_paper_objects,
)
from repro.workloads.newcarschema import (
    EVOLUTION_FEATURES,
    evolve_car_schema,
    evolve_person_schema,
)


@pytest.fixture
def world():
    manager = SchemaManager(features=EVOLUTION_FEATURES)
    result = define_car_schema(manager)
    objects = instantiate_paper_objects(manager)
    return manager, result, objects


class TestPersonFashion:
    """E7: Person@CarSchema masked as Person@NewPersonSchema (§4.1)."""

    def test_evolution_is_consistent(self, world):
        manager, result, objects = world
        evolve_person_schema(manager)
        assert manager.check().consistent

    def test_fashion_facts_present(self, world):
        manager, result, objects = world
        evolve_person_schema(manager)
        old = result.type("CarSchema", "Person")
        new = manager.model.type_id(
            "Person", manager.model.schema_id("NewPersonSchema"))
        assert manager.model.db.contains(Atom("FashionType", (old, new)))
        assert manager.model.db.contains(Atom("evolves_to_T", (old, new)))

    def test_old_instance_read_write_roundtrip(self, world):
        manager, result, objects = world
        evolve_person_schema(manager)
        person = objects["Person"]  # age 30 -> birthday 1963
        assert manager.runtime.get_attr(person, "birthday") == 1963
        manager.runtime.set_attr(person, "birthday", 1950)
        assert manager.runtime.get_attr(person, "age") == 43
        assert manager.runtime.get_attr(person, "birthday") == 1950

    def test_incomplete_fashion_detected(self, world):
        """Dropping one FashionAttr breaks completeness (§4.1)."""
        manager, result, objects = world
        evolve_person_schema(manager)
        session = manager.begin_session()
        old = result.type("CarSchema", "Person")
        new = manager.model.type_id(
            "Person", manager.model.schema_id("NewPersonSchema"))
        for fact in list(manager.model.db.matching(
                Atom("FashionAttr", (new, "name", old, None, None)))):
            session.remove(fact)
        names = {v.constraint.name for v in session.check().violations}
        assert "fashion_attr_complete" in names
        session.rollback()

    def test_version_graph_queries(self, world):
        manager, result, objects = world
        evolve_person_schema(manager)
        graph = VersionGraph(manager.model)
        old = result.type("CarSchema", "Person")
        new = manager.model.type_id(
            "Person", manager.model.schema_id("NewPersonSchema"))
        assert graph.type_successors(old) == [new]
        assert graph.type_predecessors(new) == [old]
        assert graph.latest_type_versions(old) == [new]
        assert graph.substitutable_for(new) == [old]
        assert graph.version_of_in_schema(
            new, manager.model.schema_id("CarSchema")) == old


class TestCarPartition:
    """E8: the seven-step CarSchema -> NewCarSchema evolution (§4.2)."""

    def test_evolution_is_consistent(self, world):
        manager, result, objects = world
        evolve_car_schema(manager, result)
        assert manager.check().consistent

    def test_created_structure(self, world):
        manager, result, objects = world
        created = evolve_car_schema(manager, result)
        model = manager.model
        base = created["Car"]
        polluter = created["PolluterCar"]
        catalyst = created["CatalystCar"]
        assert model.is_subtype(polluter, base)
        assert model.is_subtype(catalyst, base)
        assert model.schema_of_type(base) == created["NewCarSchema"]
        assert model.schema_of_type(polluter) == created["NewCarSchema"]
        # step 2: PolluterCar is the evolution of the old Car
        old_car = result.type("CarSchema", "Car")
        assert model.db.contains(Atom("evolves_to_T", (old_car, polluter)))
        # digestibility: the schema edge is there too
        assert model.db.contains(Atom(
            "evolves_to_S", (result.schema("CarSchema"),
                             created["NewCarSchema"])))

    def test_new_car_has_same_textual_definition(self, world):
        manager, result, objects = world
        created = evolve_car_schema(manager, result)
        old_attrs = manager.model.attributes(
            result.type("CarSchema", "Car"), inherited=False)
        new_attrs = manager.model.attributes(created["Car"],
                                             inherited=False)
        assert old_attrs == new_attrs

    def test_fuel_dispatch_per_variant(self, world):
        manager, result, objects = world
        created = evolve_car_schema(manager, result)
        person, city = objects["Person"], objects["City"]
        polluter = manager.runtime.create_object(
            created["PolluterCar"],
            {"owner": person.oid, "maxspeed": 120.0, "milage": 0.0,
             "location": city.oid})
        catalyst = manager.runtime.create_object(
            created["CatalystCar"],
            {"owner": person.oid, "maxspeed": 120.0, "milage": 0.0,
             "location": city.oid})
        assert manager.runtime.call(polluter, "fuel") == "leaded"
        assert manager.runtime.call(catalyst, "fuel") == "unleaded"

    def test_old_car_masked_as_polluter(self, world):
        manager, result, objects = world
        created = evolve_car_schema(manager, result)
        old_car = objects["Car"]
        # fuel is not declared for the old Car — fashion answers it.
        assert manager.runtime.call(old_car, "fuel") == "leaded"

    def test_old_car_substitutable_where_polluter_expected(self, world):
        from repro.runtime.masking import substitutable
        manager, result, objects = world
        created = evolve_car_schema(manager, result)
        assert substitutable(manager.model, objects["Car"].tid,
                             created["PolluterCar"])
        assert not substitutable(manager.model, objects["Car"].tid,
                                 created["CatalystCar"])

    def test_inherited_ops_still_work_on_new_variants(self, world):
        manager, result, objects = world
        created = evolve_car_schema(manager, result)
        person, city = objects["Person"], objects["City"]
        polluter = manager.runtime.create_object(
            created["PolluterCar"],
            {"owner": person.oid, "maxspeed": 120.0, "milage": 100.0,
             "location": city.oid})
        city2 = manager.runtime.create_object(
            "City", {"longi": 1.0, "lati": 1.0, "name": "B",
                     "noOfInhabitants": 10})
        result_milage = manager.runtime.call(
            polluter, "changeLocation", [person.oid, city2.oid])
        assert result_milage > 100.0

    def test_manual_seven_steps_equal_operator(self, world):
        """Executing the steps via primitives reaches the same state the
        complex operator produces (the paper's step-by-step option)."""
        manager, result, objects = world
        created = evolve_car_schema(manager, result)
        fresh = SchemaManager(features=EVOLUTION_FEATURES)
        fresh_result = define_car_schema(fresh)
        session = fresh.begin_session()
        prims = fresh.analyzer.primitives(session)
        old_car = fresh_result.type("CarSchema", "Car")
        old_sid = fresh_result.schema("CarSchema")
        new_sid = prims.add_schema("NewCarSchema")
        prims.add_schema_version(old_sid, new_sid)
        polluter = prims.add_type(new_sid, "PolluterCar")
        prims.add_type_version(old_car, polluter)
        fuel_sort = prims.add_enum_sort(new_sid, "Fuel",
                                        ("leaded", "unleaded"))
        base = prims.add_type(new_sid, "Car")
        for name, domain in fresh.model.attributes(old_car,
                                                   inherited=False):
            prims.add_attribute(base, name, domain)
        for did, opname, result_tid in fresh.model.declarations(
                old_car, inherited=False):
            code = fresh.model.code_for(did)
            prims.add_operation(base, opname,
                                fresh.model.arg_types(did), result_tid,
                                code_text=code[1])
        catalyst = prims.add_type(new_sid, "CatalystCar")
        for tid, code in ((polluter, "fuel() is return leaded;"),
                          (catalyst, "fuel() is return unleaded;")):
            prims.add_supertype(tid, base)
            prims.add_operation(tid, "fuel", (), fuel_sort,
                                code_text=code)
        prims.add_fashion_type(old_car, polluter)
        for name, _domain in fresh.model.attributes(polluter,
                                                    inherited=True):
            prims.add_fashion_attr(
                polluter, name, old_car,
                f"{name}() is return self.{name}",
                f"{name}(v) is self.{name} := v;")
        for did, opname, _r in fresh.model.declarations(polluter,
                                                        inherited=True):
            code = fresh.model.code_for(did)
            prims.add_fashion_decl(did, old_car, code[1])
        session.commit()
        assert fresh.check().consistent
        # structural equivalence with the operator result
        for type_name in ("Car", "PolluterCar", "CatalystCar", "Fuel"):
            ours = fresh.model.type_id(type_name, new_sid)
            theirs = created[type_name]
            assert (fresh.model.attributes(ours) ==
                    manager.model.attributes(theirs))
