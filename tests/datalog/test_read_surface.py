"""The live engine and its published snapshot answer every read alike.

Both extend :class:`~repro.datalog.engine.ReadableDatabase`; this pins
that the two ways of reaching a derived predicate's store (saturate if
stale, or read the frozen export) give the same answers on the car
schema after several evolution sessions, for base and derived
predicates, and that both refuse an undeclared name the same way.
"""

import pytest

from repro.datalog.terms import Atom, Literal, Variable
from repro.errors import UnknownPredicateError
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.workloads.carschema import define_car_schema
from repro.workloads.newcarschema import (
    EVOLUTION_FEATURES,
    evolve_car_schema,
    evolve_person_schema,
)


@pytest.fixture(scope="module")
def databases():
    """(live engine, snapshot of the same epoch) after five sessions:
    the car schema's definition, the §4.1 person versioning, the §4.2
    partition, one attribute added, and one rolled back."""
    manager = SchemaManager(features=EVOLUTION_FEATURES)
    manager.model.enable_snapshots()
    result = define_car_schema(manager)
    evolve_person_schema(manager)
    evolve_car_schema(manager, result)
    tid = manager.model.type_id("Car", manager.model.schema_id("CarSchema"))
    session = manager.begin_session()
    manager.analyzer.primitives(session).add_attribute(
        tid, "mileage", builtin_type("int"))
    session.commit()
    doomed = manager.begin_session()
    manager.analyzer.primitives(doomed).add_attribute(
        tid, "doomed", builtin_type("int"))
    doomed.rollback()
    live = manager.model.db
    snapshot = manager.model.snapshot()
    assert snapshot.epoch == manager.model.epoch
    return live, snapshot.db


def declared(db):
    return sorted(set(db.edb.predicates())
                  | set(db._derived_store.predicates()))


def test_both_declare_the_same_predicates(databases):
    live, snap = databases
    assert declared(live) == declared(snap)
    assert any(live.is_derived(pred) for pred in declared(live))
    for pred in declared(live):
        assert live.is_base(pred) == snap.is_base(pred)
        assert live.is_derived(pred) == snap.is_derived(pred)
        assert live.decl(pred).arity == snap.decl(pred).arity


def test_fact_readers_agree_on_every_predicate(databases):
    live, snap = databases
    for pred in declared(live):
        facts = set(live.facts(pred))
        assert set(snap.facts(pred)) == facts, pred
        assert snap.count(pred) == live.count(pred) == len(facts), pred
        assert len(snap.relation(pred)) == len(live.relation(pred)), pred
        for fact in facts:
            assert live.contains(fact) and snap.contains(fact), fact
            pattern = Atom(pred, (fact.args[0],)
                           + (None,) * (len(fact.args) - 1))
            assert set(snap.matching(pattern)) == \
                set(live.matching(pattern)), pattern


def _answers(db, body):
    return {frozenset(theta.items()) for theta in db.query(body)}


def test_query_and_holds_agree_on_every_rule_body(databases):
    live, snap = databases
    rules = list(live.program)
    assert rules
    for rule in rules:
        assert _answers(snap, rule.body) == _answers(live, rule.body), rule
        assert snap.holds(rule.body) == live.holds(rule.body), rule


@pytest.mark.parametrize("reader", [
    lambda db: db.contains(Atom("NoSuchPred", (1,))),
    lambda db: list(db.facts("NoSuchPred")),
    lambda db: list(db.matching(Atom("NoSuchPred", (None,)))),
    lambda db: db.relation("NoSuchPred"),
    lambda db: db.count("NoSuchPred"),
    lambda db: db.decl("NoSuchPred"),
    lambda db: list(db.query(
        [Literal(Atom("NoSuchPred", (Variable("X"),)))])),
    lambda db: db.holds([Literal(Atom("NoSuchPred", (Variable("X"),)))]),
], ids=["contains", "facts", "matching", "relation", "count", "decl",
        "query", "holds"])
def test_undeclared_predicate_is_refused_by_both(databases, reader):
    for db in databases:
        assert not db.is_declared("NoSuchPred")
        with pytest.raises(UnknownPredicateError):
            reader(db)
