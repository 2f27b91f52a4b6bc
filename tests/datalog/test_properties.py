"""Property-based tests (hypothesis) for the deductive-database substrate.

Invariants:

* transitive closure computed by semi-naive evaluation equals networkx's
  on random graphs;
* the acyclicity denial agrees with networkx cycle detection;
* incremental (delta) checking reports exactly what a full check reports,
  on random updates from a consistent state;
* repairs generated for a violation, when applied, remove that violation;
* match/unify laws.
"""

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.checker import ConsistencyChecker
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.facts import PredicateDecl
from repro.datalog.parser import parse_constraints, parse_rules
from repro.datalog.repair import RepairGenerator
from repro.datalog.terms import Atom, Variable, match, unify

NODES = list("abcdef")

edges_strategy = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
    max_size=14, unique=True)

TC_RULES = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
"""


def tc_db(edges):
    db = DeductiveDatabase([PredicateDecl("edge", ("s", "d")),
                            PredicateDecl("label", ("n", "l"))])
    db.add_rules(parse_rules(TC_RULES))
    for pair in edges:
        db.add_fact(Atom("edge", pair))
    return db


@given(edges_strategy)
@settings(max_examples=60, deadline=None)
def test_transitive_closure_matches_networkx(edges):
    db = tc_db(edges)
    computed = {fact.args for fact in db.facts("tc")}
    graph = nx.DiGraph(edges)
    # TC(s, t) iff t is reachable from s over at least one edge:
    # one step to a successor, then any number of further steps.
    expected = set()
    for source in graph.nodes:
        for successor in graph.successors(source):
            expected.add((source, successor))
            for target in nx.descendants(graph, successor):
                expected.add((source, target))
    assert computed == expected


@given(edges_strategy)
@settings(max_examples=60, deadline=None)
def test_acyclicity_denial_matches_networkx(edges):
    db = tc_db(edges)
    checker = ConsistencyChecker(db, parse_constraints(
        "constraint acyc: tc(X, X) ==> FALSE."))
    graph = nx.DiGraph()
    graph.add_nodes_from(NODES)
    graph.add_edges_from(edges)
    assert checker.check().consistent == nx.is_directed_acyclic_graph(graph)


@given(edges_strategy, edges_strategy, edges_strategy)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_delta_check_equals_full_check(initial, additions, deletions):
    db = tc_db(initial)
    checker = ConsistencyChecker(db, parse_constraints("""
    constraint acyc: tc(X, X) ==> FALSE.
    constraint labeled: edge(X, Y) ==> exists L: label(X, L).
    """))
    # Make the initial state consistent: drop cycles, label everything.
    for violation in checker.check().violations:
        for fact in violation.premise_facts:
            if fact.pred == "edge" and db.edb.contains(fact):
                db.remove_fact(fact)
    for node in NODES:
        db.add_fact(Atom("label", (node, "L")))
    assert checker.check().consistent

    add_facts = [Atom("edge", pair) for pair in additions]
    del_facts = [Atom("edge", pair) for pair in deletions]
    del_facts += [Atom("label", (node, "L")) for node, _ in deletions[:2]]
    db.materialize()
    db.reset_derived_delta()
    db.apply_delta(add_facts, del_facts)
    delta_report = checker.check_delta(add_facts, del_facts,
                                       derived_delta=db.derived_delta())
    assert db.stats.delta_fallbacks == 0
    full_report = checker.check()
    delta_keys = {(v.constraint.name, v.theta)
                  for v in delta_report.violations}
    full_keys = {(v.constraint.name, v.theta)
                 for v in full_report.violations}
    assert delta_keys == full_keys


@given(edges_strategy)
@settings(max_examples=40, deadline=None)
def test_repairs_remove_the_violation(edges):
    db = tc_db(edges)
    checker = ConsistencyChecker(db, parse_constraints(
        "constraint acyc: tc(X, X) ==> FALSE."))
    generator = RepairGenerator(db)
    report = checker.check()
    if report.consistent:
        return
    violation = report.violations[0]
    repairs = generator.repairs(violation)
    assert repairs, "a violated denial must offer repairs"
    for repair in repairs:
        snapshot = db.edb.snapshot()
        for action in repair.edb_actions:
            if action.is_insertion:
                db.add_fact(action.fact)
            else:
                db.remove_fact(action.fact)
        target = violation.premise_facts[0]
        assert not db.contains(target), \
            f"repair {repair!r} did not remove {target!r}"
        db.edb.restore(snapshot)
        db.invalidate({"edge"})


atoms_strategy = st.tuples(
    st.sampled_from(["p", "q"]),
    st.lists(st.one_of(st.integers(min_value=0, max_value=3),
                       st.sampled_from([Variable("X"), Variable("Y")])),
             min_size=2, max_size=2))


@given(atoms_strategy, st.lists(st.integers(0, 3), min_size=2, max_size=2))
@settings(max_examples=80, deadline=None)
def test_match_produces_matching_substitution(pattern_spec, fact_args):
    pred, args = pattern_spec
    pattern = Atom(pred, args)
    fact = Atom(pred, fact_args)
    theta = match(pattern, fact)
    if theta is not None:
        assert pattern.substitute(theta) == fact


@given(atoms_strategy, atoms_strategy)
@settings(max_examples=80, deadline=None)
def test_unify_is_a_unifier(left_spec, right_spec):
    left = Atom(left_spec[0], left_spec[1])
    right = Atom(right_spec[0], right_spec[1])
    theta = unify(left, right)
    if theta is not None:
        assert left.substitute(theta) == right.substitute(theta)
