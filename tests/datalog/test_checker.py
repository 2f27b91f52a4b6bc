"""Unit tests for full and incremental consistency checking."""

import pytest

from repro.datalog.checker import ConsistencyChecker
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.facts import PredicateDecl
from repro.datalog.parser import parse_constraints, parse_rules
from repro.datalog.terms import Atom


def make_db():
    db = DeductiveDatabase([
        PredicateDecl("edge", ("src", "dst")),
        PredicateDecl("node", ("n",)),
        PredicateDecl("label", ("n", "l")),
    ])
    db.add_rules(parse_rules("""
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
    """))
    return db


CONSTRAINTS = """
constraint acyclic: tc(X, X) ==> FALSE.
constraint edge_endpoints: edge(X, Y) ==> exists L: label(Y, L).
constraint label_unique: label(N, L1) & label(N, L2) ==> L1 = L2.
"""


@pytest.fixture
def checker():
    db = make_db()
    chk = ConsistencyChecker(db, parse_constraints(CONSTRAINTS))
    return chk


def populate(db):
    for pair in [("a", "b"), ("b", "c")]:
        db.add_fact(Atom("edge", pair))
    for node in "abc":
        db.add_fact(Atom("label", (node, f"L{node}")))


class TestFullCheck:
    def test_consistent(self, checker):
        populate(checker.database)
        report = checker.check()
        assert report.consistent
        assert report.constraints_checked == 3
        assert report.mode == "full"

    def test_denial_violation(self, checker):
        populate(checker.database)
        checker.database.add_fact(Atom("edge", ("c", "a")))
        report = checker.check()
        names = {v.constraint.name for v in report.violations}
        assert "acyclic" in names

    def test_existence_violation(self, checker):
        checker.database.add_fact(Atom("edge", ("a", "b")))
        report = checker.check()
        assert [v.constraint.name for v in report.violations] == \
            ["edge_endpoints"]
        violation = report.violations[0]
        assert violation.premise_facts == (Atom("edge", ("a", "b")),)

    def test_uniqueness_violation(self, checker):
        checker.database.add_fact(Atom("label", ("a", "L1")))
        checker.database.add_fact(Atom("label", ("a", "L2")))
        report = checker.check()
        assert {v.constraint.name for v in report.violations} == \
            {"label_unique"}
        # symmetric pair deduplicated into (L1,L2) and (L2,L1)
        assert len(report.violations) == 2

    def test_violation_describe_mentions_witness(self, checker):
        checker.database.add_fact(Atom("edge", ("a", "b")))
        violation = checker.check().violations[0]
        text = violation.describe()
        assert "edge_endpoints" in text
        assert "a" in text and "b" in text

    def test_subset_of_constraints(self, checker):
        checker.database.add_fact(Atom("edge", ("a", "b")))
        report = checker.check([checker.constraint("acyclic")])
        assert report.consistent
        assert report.constraints_checked == 1

    def test_report_by_constraint(self, checker):
        checker.database.add_fact(Atom("edge", ("a", "b")))
        checker.database.add_fact(Atom("edge", ("b", "c")))
        grouped = checker.check().by_constraint()
        assert set(grouped) == {"edge_endpoints"}
        assert len(grouped["edge_endpoints"]) == 2


class TestRegistry:
    def test_add_remove(self, checker):
        assert len(checker) == 3
        removed = checker.remove_constraint("acyclic")
        assert removed.name == "acyclic"
        assert len(checker) == 2

    def test_duplicate_rejected(self, checker):
        with pytest.raises(ValueError):
            checker.add_constraint(checker.constraint("acyclic"))


class TestDeltaCheck:
    def run_delta(self, checker, additions=(), deletions=()):
        db = checker.database
        db.materialize()
        db.reset_derived_delta()
        db.apply_delta(additions, deletions)
        return checker.check_delta(additions, deletions,
                                   derived_delta=db.derived_delta())

    def test_addition_creating_violation(self, checker):
        populate(checker.database)
        report = self.run_delta(checker,
                                additions=[Atom("edge", ("c", "d"))])
        assert {v.constraint.name for v in report.violations} == \
            {"edge_endpoints"}

    def test_addition_creating_derived_violation(self, checker):
        populate(checker.database)
        report = self.run_delta(checker,
                                additions=[Atom("edge", ("c", "a")),
                                           Atom("label", ("a", "La"))])
        names = {v.constraint.name for v in report.violations}
        assert "acyclic" in names

    def test_deletion_breaking_conclusion(self, checker):
        populate(checker.database)
        report = self.run_delta(checker,
                                deletions=[Atom("label", ("b", "Lb"))])
        assert {v.constraint.name for v in report.violations} == \
            {"edge_endpoints"}

    def test_harmless_delta_reports_nothing(self, checker):
        populate(checker.database)
        report = self.run_delta(checker,
                                additions=[Atom("label", ("d", "Ld"))])
        assert report.consistent
        assert report.mode == "delta"

    def test_delta_matches_full(self, checker):
        populate(checker.database)
        additions = [Atom("edge", ("c", "a")), Atom("label", ("a", "L2"))]
        report = self.run_delta(checker, additions=additions)
        full = checker.check()
        delta_keys = {(v.constraint.name, v.theta)
                      for v in report.violations}
        full_keys = {(v.constraint.name, v.theta) for v in full.violations}
        assert delta_keys == full_keys

    def test_delta_without_snapshot_is_sound(self, checker):
        populate(checker.database)
        additions = [Atom("edge", ("c", "a"))]
        checker.database.apply_delta(additions, ())
        report = checker.check_delta(additions, ())
        names = {v.constraint.name for v in report.violations}
        assert "acyclic" in names


class TestNegativePremise:
    def test_deletion_enabling_negated_literal(self):
        db = DeductiveDatabase([
            PredicateDecl("item", ("i",)),
            PredicateDecl("covered", ("i",)),
        ])
        chk = ConsistencyChecker(db, parse_constraints(
            "constraint all_covered: item(X) & not covered(X) ==> FALSE."))
        db.add_fact(Atom("item", ("a",)))
        db.add_fact(Atom("covered", ("a",)))
        assert chk.check().consistent
        db.reset_derived_delta()
        deletions = [Atom("covered", ("a",))]
        db.apply_delta((), deletions)
        report = chk.check_delta((), deletions,
                                 derived_delta=db.derived_delta())
        assert not report.consistent
