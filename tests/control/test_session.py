"""Unit tests for evolution sessions (BES/EES)."""

import pytest

from repro.errors import (
    InconsistentSchemaError,
    MissingRepairInputError,
    SessionClosedError,
)
from repro.datalog.repair import NewConstant, Repair, RepairAction
from repro.datalog.terms import Atom
from repro.fuzz.oracles import CannedInputs
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager

INT = builtin_type("int")


@pytest.fixture
def manager():
    manager = SchemaManager()
    manager.define("""
    schema S is
    type T is [ x : int; ] end type T;
    end schema S;
    """)
    return manager


@pytest.fixture
def tid(manager):
    return manager.model.type_id("T", manager.model.schema_id("S"))


class TestNetDelta:
    def test_add_then_delete_cancels(self, manager, tid):
        session = manager.begin_session()
        fact = Atom("Attr", (tid, "y", INT))
        session.add(fact)
        session.remove(fact)
        additions, deletions = session.net_delta()
        assert additions == () and deletions == ()

    def test_delete_then_readd_cancels(self, manager, tid):
        session = manager.begin_session()
        fact = Atom("Attr", (tid, "x", INT))
        session.remove(fact)
        session.add(fact)
        assert session.net_delta() == ((), ())

    def test_idempotent_adds_counted_once(self, manager, tid):
        session = manager.begin_session()
        fact = Atom("Attr", (tid, "y", INT))
        session.add(fact)
        session.add(fact)
        additions, deletions = session.net_delta()
        assert additions == (fact,)

    def test_deleting_absent_fact_is_noop(self, manager, tid):
        session = manager.begin_session()
        session.remove(Atom("Attr", (tid, "ghost", INT)))
        assert session.net_delta() == ((), ())


class TestCheckModes:
    def test_delta_and_full_agree(self, manager, tid):
        session = manager.begin_session()
        ghost = manager.model.ids.type()
        session.add(Atom("Attr", (tid, "bad", ghost)))
        delta_report = session.check("delta")
        full_report = session.check("full")
        delta_names = {v.constraint.name for v in delta_report.violations}
        full_names = {v.constraint.name for v in full_report.violations}
        assert delta_names == full_names != set()

    def test_invalid_mode_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.begin_session(check_mode="psychic")

    def test_report_describe(self, manager, tid):
        session = manager.begin_session()
        session.add(Atom("Attr", (tid, "y", INT)))
        report = session.check()
        assert "delta: +1 -0" in report.describe()


class TestCommitAndRollback:
    def test_commit_consistent(self, manager, tid):
        session = manager.begin_session()
        session.add(Atom("Attr", (tid, "y", INT)))
        report = session.commit()
        assert report.consistent
        assert not session.active

    def test_commit_inconsistent_raises_and_stays_open(self, manager, tid):
        session = manager.begin_session()
        session.add(Atom("Attr", (tid, "bad", manager.model.ids.type())))
        with pytest.raises(InconsistentSchemaError) as error:
            session.commit()
        assert error.value.violations
        assert session.active

    def test_commit_without_requirement(self, manager, tid):
        session = manager.begin_session()
        session.add(Atom("Attr", (tid, "bad", manager.model.ids.type())))
        report = session.commit(require_consistent=False)
        assert not report.consistent
        assert not session.active

    def test_rollback_restores_and_closes(self, manager, tid):
        before = manager.model.db.edb.snapshot()
        session = manager.begin_session()
        session.add(Atom("Attr", (tid, "y", INT)))
        session.rollback()
        assert manager.model.db.edb.snapshot() == before
        assert not session.active

    def test_rollback_invalidates_derived(self, manager, tid):
        session = manager.begin_session()
        session.add(Atom("Attr", (tid, "y", INT)))
        assert manager.model.db.contains(Atom("Attr_i", (tid, "y", INT)))
        session.rollback()
        assert not manager.model.db.contains(Atom("Attr_i", (tid, "y",
                                                             INT)))

    def test_closed_session_rejects_everything(self, manager, tid):
        session = manager.begin_session()
        session.commit()
        with pytest.raises(SessionClosedError):
            session.add(Atom("Attr", (tid, "y", INT)))
        with pytest.raises(SessionClosedError):
            session.check()


def _placeholder_repair(tid):
    """A repair adding attribute ``n`` whose domain is placeholder ``D``."""
    action = RepairAction("+", Atom("Attr", (tid, "n", NewConstant("D"))))
    return Repair(display_action=action, edb_actions=(action,),
                  kind="validate-conclusion")


class TestRepairsThroughSession:
    def test_repairs_carry_explanations(self, manager, tid):
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        prims.add_operation(tid, "nocode", (), INT)
        report = session.check()
        repairs = session.repairs(report.violations[0])
        assert repairs
        texts = [text for er in repairs for text in er.explanations]
        assert any("nocode" in text for text in texts)

    def test_apply_repair_resolves_placeholders(self, manager, tid):
        session = manager.begin_session()
        repair = _placeholder_repair(tid)
        session.apply_repair(repair, inputs={"D": INT})
        assert manager.model.db.contains(Atom("Attr", (tid, "n", INT)))

    def test_apply_repair_missing_input_raises(self, manager, tid):
        session = manager.begin_session()
        repair = _placeholder_repair(tid)
        with pytest.raises(MissingRepairInputError, match="<new:D>"):
            session.apply_repair(repair)

    def test_apply_repair_keeps_an_empty_mapping_that_answers(self, manager,
                                                              tid):
        # CannedInputs is empty yet answers every placeholder; an empty
        # mapping must not be swapped for "no inputs".
        session = manager.begin_session()
        repair = _placeholder_repair(tid)
        session.apply_repair(repair, inputs=CannedInputs())
        assert manager.model.db.contains(Atom("Attr", (tid, "n", "fuzz_D")))
