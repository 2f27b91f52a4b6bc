"""Unit tests for incremental view maintenance (engine maintenance="delta").

Covers the DRed phases directly on small programs: insertion rounds
against the current extension, over-delete / re-derive with alternate
derivations and cycles (where pure counting would fail), negation flips
at stratum boundaries in both directions, the session-scoped
grown/shrunk accounting with cancellation, tainting, and the checker's
counted fallback when no exact delta is available.
"""

import pytest

from repro.datalog.checker import ConsistencyChecker
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.facts import PredicateDecl
from repro.datalog.parser import parse_constraints, parse_rules
from repro.datalog.provenance import Derivation, ProvenanceIndex
from repro.datalog.terms import Atom

TC_RULES = """
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- edge(X, Y), tc(Y, Z).
"""

SINK_RULES = """
hassucc(X) :- edge(X, Y).
sink(X) :- node(X), not hassucc(X).
"""


def tc_db(pairs, maintenance="delta"):
    db = DeductiveDatabase([PredicateDecl("edge", ("src", "dst"))],
                           maintenance=maintenance)
    db.add_rules(parse_rules(TC_RULES))
    db.apply_delta(additions=[Atom("edge", pair) for pair in pairs])
    db.materialize()
    return db


def sink_db(nodes, pairs):
    db = DeductiveDatabase([
        PredicateDecl("node", ("n",)),
        PredicateDecl("edge", ("s", "d")),
    ])
    db.add_rules(parse_rules(SINK_RULES))
    db.apply_delta(additions=[Atom("node", (n,)) for n in nodes]
                   + [Atom("edge", pair) for pair in pairs])
    db.materialize()
    return db


def closure(db):
    return {fact.args for fact in db.facts("tc")}


def derivation_keys(db):
    return {fact: {d.key() for d in db.derivations(fact)}
            for fact in db.facts("tc")}


class TestInsertionMaintenance:
    def test_insert_extends_closure_in_place(self):
        db = tc_db([("a", "b"), ("c", "d")])
        db.add_fact(Atom("edge", ("b", "c")))
        # Maintained, not recomputed: the predicate stayed fresh and the
        # insert rounds were counted.
        assert "tc" in db._fresh
        assert db.stats.maint_insert_rounds > 0
        assert closure(db) == {("a", "b"), ("c", "d"), ("b", "c"),
                               ("a", "c"), ("b", "d"), ("a", "d")}

    def test_insert_into_cycle(self):
        db = tc_db([("a", "b")])
        db.add_fact(Atom("edge", ("b", "a")))
        assert closure(db) == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_duplicate_insert_is_noop(self):
        db = tc_db([("a", "b")])
        before = db.stats.maint_insert_rounds
        assert not db.add_fact(Atom("edge", ("a", "b")))
        assert db.stats.maint_insert_rounds == before

    def test_provenance_complete_after_insert(self):
        # A new edge creates a second derivation of an existing fact;
        # maintenance must record it even though the fact is not new.
        db = tc_db([("a", "b"), ("b", "c")])
        assert len(db.derivations(Atom("tc", ("a", "c")))) == 1
        db.add_fact(Atom("edge", ("a", "c")))
        assert len(db.derivations(Atom("tc", ("a", "c")))) == 2


class TestDeletionMaintenance:
    def test_delete_shrinks_closure(self):
        db = tc_db([("a", "b"), ("b", "c")])
        db.remove_fact(Atom("edge", ("b", "c")))
        assert "tc" in db._fresh
        assert db.stats.maint_deleted > 0
        assert closure(db) == {("a", "b")}

    def test_alternate_derivation_survives(self):
        # Diamond: a->d via b and via c.  Deleting the b-path must keep
        # tc(a,d) alive through the c-path (DRed re-derivation).
        db = tc_db([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])
        db.remove_fact(Atom("edge", ("a", "b")))
        assert db.stats.maint_rederived > 0
        assert ("a", "d") in closure(db)
        assert ("b", "d") in closure(db)
        assert ("a", "b") not in closure(db)

    def test_cycle_deletion_not_self_supporting(self):
        # tc(a,a)/tc(b,b) are supported only through the cycle; counting
        # alone would leave them alive (circular support), DRed must not.
        db = tc_db([("a", "b"), ("b", "a")])
        db.remove_fact(Atom("edge", ("a", "b")))
        assert closure(db) == {("b", "a")}

    def test_deleted_provenance_is_gone(self):
        db = tc_db([("a", "b"), ("b", "c")])
        db.remove_fact(Atom("edge", ("b", "c")))
        assert db.derivations(Atom("tc", ("a", "c"))) == []
        assert db.provenance.facts_supported_by(Atom("tc", ("b", "c"))) \
            == set()

    def test_survivor_keeps_only_valid_derivations(self):
        db = tc_db([("a", "b"), ("b", "c"), ("a", "c")])
        assert len(db.derivations(Atom("tc", ("a", "c")))) == 2
        db.remove_fact(Atom("edge", ("a", "c")))
        derivations = db.derivations(Atom("tc", ("a", "c")))
        assert len(derivations) == 1
        assert Atom("edge", ("a", "c")) not in derivations[0].positive_supports
        assert Atom("tc", ("b", "c")) in derivations[0].positive_supports

    def test_rederived_chain_matches_recompute(self):
        # Deleting c->d over-deletes tc(c,d), tc(b,d) and every
        # tc(aI,d) above it.  tc(b,d) is re-derivable from a survivor,
        # edge(b,d); each tc(aI,d) only through the over-deleted
        # tc(aI+1,d) (or tc(b,d)) below it — a chain the re-derivation
        # pass settles alone only if it happens to visit it bottom-up.
        chain = [("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "b")]
        kept = chain + [("b", "c"), ("b", "d")]
        db = tc_db(kept + [("c", "d")])
        db.remove_fact(Atom("edge", ("c", "d")))
        fresh = tc_db(kept)
        assert closure(db) == closure(fresh)
        assert derivation_keys(db) == derivation_keys(fresh)
        assert db.stats.maint_deleted == 6
        assert db.stats.maint_rederived == 5


class TestNegationFlips:
    def test_addition_kills_negatively_supported_fact(self):
        # Adding edge(c,d) derives hassucc(c) in the lower stratum, which
        # blocks sink(c) in the upper one.
        db = sink_db("abcd", [("a", "b"), ("b", "c")])
        assert {f.args for f in db.facts("sink")} == {("c",), ("d",)}
        db.add_fact(Atom("edge", ("c", "d")))
        assert {f.args for f in db.facts("sink")} == {("d",)}

    def test_deletion_enables_negatively_supported_fact(self):
        # Removing the last outgoing edge of b deletes hassucc(b); the
        # absence seeds sink(b) through the negated literal.
        db = sink_db("abc", [("a", "b"), ("b", "c")])
        assert {f.args for f in db.facts("sink")} == {("c",)}
        db.remove_fact(Atom("edge", ("b", "c")))
        assert {f.args for f in db.facts("sink")} == {("b",), ("c",)}
        assert "sink" in db._fresh


class TestDerivedDeltaAccounting:
    def test_delta_matches_changes(self):
        db = tc_db([("a", "b")])
        db.reset_derived_delta()
        db.add_fact(Atom("edge", ("b", "c")))
        delta = db.derived_delta()
        assert delta is not None
        grown, shrunk = delta["tc"]
        assert grown == {Atom("tc", ("b", "c")), Atom("tc", ("a", "c"))}
        assert shrunk == set()

    def test_add_then_remove_cancels(self):
        db = tc_db([("a", "b")])
        db.reset_derived_delta()
        db.add_fact(Atom("edge", ("b", "c")))
        db.remove_fact(Atom("edge", ("b", "c")))
        delta = db.derived_delta()
        assert delta is not None
        grown, shrunk = delta.get("tc", (set(), set()))
        assert grown == set() and shrunk == set()

    def test_remove_then_readd_cancels(self):
        db = tc_db([("a", "b"), ("b", "c")])
        db.reset_derived_delta()
        db.remove_fact(Atom("edge", ("a", "b")))
        db.add_fact(Atom("edge", ("a", "b")))
        delta = db.derived_delta()
        assert delta is not None
        grown, shrunk = delta.get("tc", (set(), set()))
        assert grown == set() and shrunk == set()

    def test_add_rule_taints(self):
        db = tc_db([("a", "b")])
        db.reset_derived_delta()
        db.add_rule(parse_rules("tc2(X, Y) :- tc(X, Y).")[0])
        assert db.derived_delta() is None

    def test_rollback_style_invalidate_taints(self):
        db = tc_db([("a", "b")])
        db.reset_derived_delta()
        db.invalidate(["edge"])
        assert db.derived_delta() is None

    def test_reset_with_stale_predicates_is_tainted(self):
        db = DeductiveDatabase([PredicateDecl("edge", ("s", "d"))])
        db.add_rules(parse_rules(TC_RULES))
        db.add_fact(Atom("edge", ("a", "b")))  # tc never materialized
        db.reset_derived_delta()
        assert db.derived_delta() is None


class TestRecomputeFallbacks:
    def test_recompute_mode_matches_maintained(self):
        pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")]
        maintained = tc_db(pairs)
        recomputed = tc_db(pairs, maintenance="recompute")
        for db, remove in ((maintained, True), (recomputed, True)):
            db.remove_fact(Atom("edge", ("b", "c")))
            db.add_fact(Atom("edge", ("b", "d")))
        assert closure(maintained) == closure(recomputed)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            DeductiveDatabase(maintenance="eager")

    def test_cold_extension_falls_back_to_invalidate(self):
        # Before first materialization the extension is cold; maintenance
        # must not run (bulk loads stay lazy).
        db = DeductiveDatabase([PredicateDecl("edge", ("s", "d"))])
        db.add_rules(parse_rules(TC_RULES))
        db.add_fact(Atom("edge", ("a", "b")))
        assert db.stats.maint_insert_rounds == 0
        assert "tc" not in db._fresh

    def test_recompute_mode_invalidates_instead_of_maintaining(self):
        # The mode is fixed at construction: a recompute engine never
        # maintains, even over a materialized extension.
        db = tc_db([("a", "b")], maintenance="recompute")
        db.add_fact(Atom("edge", ("b", "c")))
        assert "tc" not in db._fresh  # invalidated, not maintained
        assert closure(db) == {("a", "b"), ("b", "c"), ("a", "c")}


class TestCheckerFallbackCounter:
    def make_checker(self):
        db = sink_db("abc", [("a", "b"), ("b", "c")])
        checker = ConsistencyChecker(db)
        checker.add_constraint(parse_constraints(
            "constraint no_sinks: sink(X) ==> FALSE.")[0])
        return db, checker

    def test_exact_delta_counts_no_fallback(self):
        db, checker = self.make_checker()
        db.reset_derived_delta()
        db.apply_delta(deletions=[Atom("edge", ("b", "c"))])
        report = checker.check_delta([], [Atom("edge", ("b", "c"))],
                                     derived_delta=db.derived_delta())
        assert db.stats.delta_fallbacks == 0
        # Exact delta: only the violation the update created (sink(b));
        # sink(c) predates the update and is not re-reported.
        assert {v.substitution[next(iter(v.substitution))]
                for v in report.violations} == {"b"}

    def test_conservative_fallback_is_counted(self):
        db, checker = self.make_checker()
        db.apply_delta(deletions=[Atom("edge", ("b", "c"))])
        report = checker.check_delta([], [Atom("edge", ("b", "c"))])
        assert db.stats.delta_fallbacks > 0
        assert len(report.violations) == 2


class TestClearPredicate:
    def make_index(self):
        index = ProvenanceIndex()
        index.record(Derivation(
            fact=Atom("tc", ("a", "b")), rule_name="tc_base",
            positive_supports=(Atom("edge", ("a", "b")),),
            negative_supports=()))
        index.record(Derivation(
            fact=Atom("tc", ("a", "c")), rule_name="tc_step",
            positive_supports=(Atom("edge", ("a", "b")),
                               Atom("tc", ("b", "c"))),
            negative_supports=(Atom("blocked", ("a",)),)))
        index.record(Derivation(
            fact=Atom("other", ("a",)), rule_name="other",
            positive_supports=(Atom("edge", ("a", "b")),),
            negative_supports=()))
        return index

    def test_clear_predicate_drops_everything(self):
        index = self.make_index()
        assert index.clear_predicate("tc") == 2
        assert index.derivations(Atom("tc", ("a", "b"))) == []
        assert index.derivations(Atom("tc", ("a", "c"))) == []
        assert index.facts_supported_by(Atom("edge", ("a", "b"))) \
            == {Atom("other", ("a",))}
        assert index.facts_blocked_by(Atom("blocked", ("a",))) == set()
        assert len(index) == 1

    def test_clear_predicate_unknown_is_noop(self):
        index = self.make_index()
        assert index.clear_predicate("nothing") == 0
        assert len(index) == 3

    def test_clear_matches_per_fact_drop(self):
        bulk = self.make_index()
        single = self.make_index()
        bulk.clear_predicate("tc")
        single.drop_fact(Atom("tc", ("a", "b")))
        single.drop_fact(Atom("tc", ("a", "c")))
        assert len(bulk) == len(single)
        assert bulk.facts_supported_by(Atom("edge", ("a", "b"))) \
            == single.facts_supported_by(Atom("edge", ("a", "b")))
