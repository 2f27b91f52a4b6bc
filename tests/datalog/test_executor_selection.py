"""Executor selection: one kwarg, one production path.

The ``executor=`` constructor kwarg is the only way to leave the
compiled executor, and ``"interpreted"`` exists for the differential
oracles alone.  Under ``"compiled"`` every plan runs as a closure from
its first execution — no warm-up on the interpreter, no fall-back to it
— and a call the closure cannot run faithfully fails loudly.
"""

from collections import Counter

import pytest

from repro.datalog.engine import DeductiveDatabase
from repro.datalog.facts import PredicateDecl
from repro.datalog.plan import JoinPlan
from repro.datalog.terms import Atom, Literal, Variable
from repro.errors import PlanningError
from repro.gom.model import GomDatabase
from repro.manager import SchemaManager

X, Y = Variable("X"), Variable("Y")


def test_default_is_compiled():
    assert DeductiveDatabase().executor == "compiled"
    assert GomDatabase().db.executor == "compiled"
    assert SchemaManager().model.db.executor == "compiled"


@pytest.mark.parametrize("choice", ["compiled", "interpreted"])
def test_kwarg_overrides_env(choice):
    """The kwarg alone decides, at every construction layer and on the
    snapshots a model exports."""
    assert DeductiveDatabase(executor=choice).executor == choice
    assert GomDatabase(executor=choice).db.executor == choice
    manager = SchemaManager(executor=choice)
    assert manager.model.db.executor == choice
    assert manager.model.db.export_snapshot().executor == choice


def test_invalid_kwarg_fails_loudly():
    with pytest.raises(ValueError, match="executor"):
        SchemaManager(executor="jit")
    with pytest.raises(ValueError, match="executor"):
        DeductiveDatabase(executor="")


def _edge_db(executor):
    db = DeductiveDatabase([PredicateDecl("edge", ("src", "dst"))],
                           executor=executor)
    for pair in [("a", "b"), ("b", "c")]:
        db.add_fact(Atom("edge", pair))
    return db


def count_interpreter_entries(monkeypatch):
    """Entries into the step interpreter, per ``database.executor``."""
    entries = Counter()
    original = JoinPlan._run_supports

    def counting(self, database, *args):
        entries[database.executor] += 1
        return original(self, database, *args)

    monkeypatch.setattr(JoinPlan, "_run_supports", counting)
    return entries


def test_compiled_plan_has_its_closure_after_first_execution(monkeypatch):
    entries = count_interpreter_entries(monkeypatch)
    db = _edge_db("compiled")
    body = (Literal(Atom("edge", (X, Y))),)
    plan = db.planner.plan(body)
    assert plan._cc is None
    assert len(list(plan.substitutions(db))) == 2
    assert plan._cc is not None
    assert db.stats.compiled_plans == 1
    assert not entries


def test_interpreted_plan_never_lowers(monkeypatch):
    entries = count_interpreter_entries(monkeypatch)
    db = _edge_db("interpreted")
    plan = db.planner.plan((Literal(Atom("edge", (X, Y))),))
    for _ in range(5):
        assert len(list(plan.substitutions(db))) == 2
    assert plan._cc is None
    assert db.stats.compiled_plans == 0
    assert set(entries) == {"interpreted"}


def test_seed_binding_an_unpromised_variable_raises():
    """The closure would overwrite X instead of filtering on it; the
    engine used to hand such calls to the interpreter silently."""
    db = _edge_db("compiled")
    plan = db.planner.plan((Literal(Atom("edge", (X, Y))),))
    with pytest.raises(PlanningError, match="not compiled as bound"):
        list(plan.substitutions(db, {X: "a"}))
    with pytest.raises(PlanningError, match="not compiled as bound"):
        plan.probe(db, {X: "a"})


def test_seed_missing_a_promised_variable_raises():
    db = _edge_db("compiled")
    plan = db.planner.plan((Literal(Atom("edge", (X, Y))),), {X})
    assert [theta[Y] for theta in plan.substitutions(db, {X: "a"})] == ["b"]
    with pytest.raises(PlanningError, match="unbound"):
        list(plan.substitutions(db))
