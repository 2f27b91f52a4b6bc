"""Engine statistics across BES/EES sessions, and plan-cache reuse.

Covers the instrumentation thread: a fresh :class:`EngineStats` at BES,
publication via ``SchemaManager.last_session_stats()`` at commit or
rollback, protocol results carrying stats — and the correctness anchor
that delta checks stay equivalent to full checks while compiled plans
are reused across several sessions of one manager lifetime.
"""

import pytest

from repro.errors import InconsistentSchemaError
from repro.datalog.terms import Atom
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager

INT = builtin_type("int")
STR = builtin_type("string")


@pytest.fixture
def manager():
    manager = SchemaManager()
    manager.define("""
    schema S is
    type T is [ x : int; ] end type T;
    type U is [ y : string; ] end type U;
    end schema S;
    """)
    return manager


def _tid(manager, name):
    return manager.model.type_id(name, manager.model.schema_id("S"))


class TestStatsSurface:
    def test_none_before_any_session_ends(self):
        manager = SchemaManager.__new__(SchemaManager)  # bypass define()
        from repro.gom.model import GomDatabase
        manager.model = GomDatabase()
        assert manager.last_session_stats() is None

    def test_published_on_commit(self, manager):
        session = manager.begin_session()
        session.add(Atom("Attr", (_tid(manager, "T"), "z", INT)))
        session.commit(require_consistent=False)
        stats = manager.last_session_stats()
        assert stats is session.stats
        assert stats.finished_at is not None
        assert stats.checks_run >= 1
        assert stats.constraints_checked > 0

    def test_published_on_rollback(self, manager):
        session = manager.begin_session()
        session.add(Atom("Attr", (_tid(manager, "T"), "z", INT)))
        session.check()
        session.rollback()
        stats = manager.last_session_stats()
        assert stats is session.stats
        assert stats.finished_at is not None

    def test_each_session_gets_fresh_stats(self, manager):
        first = manager.begin_session()
        first.commit(require_consistent=False)
        second = manager.begin_session()
        second.commit(require_consistent=False)
        assert first.stats is not second.stats
        assert manager.last_session_stats() is second.stats

    def test_per_constraint_timings_recorded(self, manager):
        session = manager.begin_session()
        session.add(Atom("Attr", (_tid(manager, "T"), "z", INT)))
        session.commit(require_consistent=False)
        stats = manager.last_session_stats()
        assert stats.constraint_seconds
        assert all(seconds >= 0.0
                   for seconds in stats.constraint_seconds.values())
        name, _seconds = stats.slowest_constraints(1)[0]
        assert name in stats.constraint_seconds

    def test_describe_stats(self, manager):
        session = manager.begin_session()
        session.commit(require_consistent=False)
        text = manager.last_session_stats().describe()
        assert "plans compiled" in text
        assert "facts scanned" in text

    def test_protocol_result_carries_stats(self, manager):
        tid = _tid(manager, "T")
        result = manager.evolve(
            lambda session: session.add(Atom("Attr", (tid, "z", INT))))
        assert result.succeeded
        assert result.stats is not None
        assert result.stats.checks_run >= 1
        assert result.stats is manager.last_session_stats()


class TestDeltaEqualsFullAcrossSessions:
    def test_cached_plans_stay_correct_across_sessions(self, manager):
        """Several BES/EES brackets on one manager: plans compiled in
        earlier sessions are reused (cache hits observed) and the delta
        check keeps agreeing with a fresh full check every time."""
        tid_t = _tid(manager, "T")
        tid_u = _tid(manager, "U")
        ghost = manager.model.ids.type()
        scenarios = [
            ((Atom("Attr", (tid_t, "a1", INT)),), ()),       # consistent
            ((Atom("Attr", (tid_t, "bad", ghost)),), ()),    # dangling ref
            ((Atom("Attr", (tid_u, "a2", STR)),), ()),       # consistent
            ((Atom("Attr", (tid_u, "bad2", ghost)),), ()),   # dangling ref
        ]
        total_hits = 0
        for additions, deletions in scenarios:
            session = manager.begin_session(check_mode="delta")
            session.modify(additions, deletions)
            delta_report = session.check("delta")
            full_report = session.check("full")
            delta_keys = {(v.constraint.name, v.theta)
                          for v in delta_report.violations}
            full_keys = {(v.constraint.name, v.theta)
                         for v in full_report.violations}
            assert delta_keys == full_keys
            total_hits += session.stats.plan_cache_hits
            session.rollback()
        # Plans compiled in earlier sessions must have been reused.
        assert total_hits > 0
        final = manager.begin_session(check_mode="delta")
        final.add(Atom("Attr", (tid_t, "a3", INT)))
        report = final.commit()
        assert report.consistent
        assert final.stats.plan_cache_hits > 0
        assert final.stats.plans_compiled == 0  # everything reused

    def test_inconsistent_commit_keeps_session_stats_open(self, manager):
        session = manager.begin_session()
        ghost = manager.model.ids.type()
        session.add(Atom("Attr", (_tid(manager, "T"), "bad", ghost)))
        with pytest.raises(InconsistentSchemaError):
            session.commit()
        assert session.active  # stays open for repair / rollback
        assert session.stats.finished_at is None
        session.rollback()
        assert manager.last_session_stats() is session.stats
