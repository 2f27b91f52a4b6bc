"""Delta checking through negation-derived predicates.

The subtle incremental case: a base *addition* can make derived facts
*disappear* (rules with negation), which can break existence conclusions
elsewhere.  The polarity closure of the checker must catch these.
"""

import pytest

from repro.datalog.checker import ConsistencyChecker
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.facts import PredicateDecl
from repro.datalog.parser import parse_constraints, parse_rules
from repro.datalog.terms import Atom


@pytest.fixture
def db():
    db = DeductiveDatabase([
        PredicateDecl("item", ("i",)),
        PredicateDecl("blocked", ("i",)),
        PredicateDecl("assigned", ("i", "w")),
    ])
    db.add_rules(parse_rules("""
    active(X) :- item(X), not blocked(X).
    """))
    return db


CONSTRAINTS = """
% every active item needs an assignment
constraint active_assigned: active(X) ==> exists W: assigned(X, W).
% no assignment may target a non-active item
constraint assigned_active: assigned(X, W) ==> active(X).
"""


def run_delta(checker, additions=(), deletions=()):
    db = checker.database
    db.materialize()
    db.reset_derived_delta()
    db.apply_delta(additions, deletions)
    return checker.check_delta(additions, deletions,
                               derived_delta=db.derived_delta())


class TestNegationPolarity:
    def test_base_addition_shrinks_derived_breaking_conclusion(self, db):
        """+blocked(a) removes active(a), violating assigned_active."""
        checker = ConsistencyChecker(db, parse_constraints(CONSTRAINTS))
        db.add_fact(Atom("item", ("a",)))
        db.add_fact(Atom("assigned", ("a", "w1")))
        assert checker.check().consistent
        report = run_delta(checker, additions=[Atom("blocked", ("a",))])
        assert {v.constraint.name for v in report.violations} == \
            {"assigned_active"}

    def test_base_deletion_grows_derived_creating_premise_match(self, db):
        """-blocked(a) re-activates a, which then needs an assignment."""
        checker = ConsistencyChecker(db, parse_constraints(CONSTRAINTS))
        db.add_fact(Atom("item", ("a",)))
        db.add_fact(Atom("blocked", ("a",)))
        assert checker.check().consistent  # a is not active: nothing needed
        report = run_delta(checker, deletions=[Atom("blocked", ("a",))])
        assert {v.constraint.name for v in report.violations} == \
            {"active_assigned"}

    def test_delta_equals_full_on_mixed_update(self, db):
        checker = ConsistencyChecker(db, parse_constraints(CONSTRAINTS))
        for item in "abc":
            db.add_fact(Atom("item", (item,)))
            db.add_fact(Atom("assigned", (item, "w")))
        db.add_fact(Atom("blocked", ("c",)))
        db.remove_fact(Atom("assigned", ("c", "w")))
        assert checker.check().consistent
        report = run_delta(
            checker,
            additions=[Atom("blocked", ("a",)),
                       Atom("assigned", ("c", "w2"))],
            deletions=[Atom("blocked", ("c",)), Atom("item", ("b",))])
        full = checker.check()
        assert {(v.constraint.name, v.theta) for v in report.violations} \
            == {(v.constraint.name, v.theta) for v in full.violations}

    def test_gom_refinement_negation_path(self):
        """Adding a DeclRefinement shrinks Decl_i (negation through
        Refined): the delta check must still agree with the full check."""
        from repro.manager import SchemaManager
        from repro.gom.builtins import builtin_type
        INT = builtin_type("int")
        manager = SchemaManager(features=("core", "versioning", "fashion"))
        manager.define("""
        schema S is
        type Old is
        operations
          declare f : -> int;
        implementation
          define f() is return 1;
        end type Old;
        type Sub supertype Old is
        end type Sub;
        end schema S;
        """)
        sid = manager.model.schema_id("S")
        old_tid = manager.model.type_id("Old", sid)
        sub_tid = manager.model.type_id("Sub", sid)
        old_f = manager.model.decl_id(old_tid, "f")
        # A fashion imitating everything Sub sees (only inherited f).
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        new_sid = prims.add_schema("S2")
        twin = prims.add_type(new_sid, "Twin")
        prims.add_schema_version(sid, new_sid)
        prims.add_type_version(sub_tid, twin)
        prims.add_fashion_type(twin, sub_tid)
        prims.add_fashion_decl(old_f, twin, "f() is return 1;")
        delta_report = session.check("delta")
        full_report = session.check("full")
        assert ({(v.constraint.name, v.theta)
                 for v in delta_report.violations}
                == {(v.constraint.name, v.theta)
                    for v in full_report.violations})
        session.rollback()
        # Now the same but the refinement appears in the same session:
        # Decl_i(old_f, Sub) disappears (Refined), so the fashion's
        # completeness obligation set changes — delta must track it.
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        new_sid = prims.add_schema("S2")
        twin = prims.add_type(new_sid, "Twin")
        prims.add_schema_version(sid, new_sid)
        prims.add_type_version(sub_tid, twin)
        prims.add_fashion_type(twin, sub_tid)
        prims.add_fashion_decl(old_f, twin, "f() is return 1;")
        sub_f = prims.add_operation(sub_tid, "f", (), INT,
                                    code_text="f() is return 2;",
                                    refines=old_f)
        delta_report = session.check("delta")
        full_report = session.check("full")
        assert ({(v.constraint.name, v.theta)
                 for v in delta_report.violations}
                == {(v.constraint.name, v.theta)
                    for v in full_report.violations})
        session.rollback()
