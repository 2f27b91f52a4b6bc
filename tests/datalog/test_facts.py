"""Unit tests for the indexed EDB fact store."""

import pytest

from repro.errors import (
    ArityError,
    DuplicatePredicateError,
    NotGroundError,
    UnknownPredicateError,
)
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.facts import FactStore, PredicateDecl, Relation
from repro.datalog.terms import Atom, Variable
from repro.obs.metrics import MetricsRegistry

X = Variable("X")


@pytest.fixture
def store():
    return FactStore([
        PredicateDecl("edge", ("src", "dst")),
        PredicateDecl("Type", ("tid", "name", "sid"), key=(0,),
                      references=((2, "Schema", 0),)),
    ])


class TestPredicateDecl:
    def test_arity(self):
        assert PredicateDecl("p", ("a", "b", "c")).arity == 3

    def test_key_position_out_of_range(self):
        with pytest.raises(ValueError):
            PredicateDecl("p", ("a",), key=(3,))

    def test_reference_position_out_of_range(self):
        with pytest.raises(ValueError):
            PredicateDecl("p", ("a",), references=((2, "q", 0),))


class TestRelation:
    def test_add_and_contains(self):
        relation = Relation(PredicateDecl("p", ("a", "b")))
        assert relation.add((1, 2))
        assert (1, 2) in relation

    def test_add_duplicate_returns_false(self):
        relation = Relation(PredicateDecl("p", ("a",)))
        relation.add((1,))
        assert not relation.add((1,))
        assert len(relation) == 1

    def test_add_wrong_arity(self):
        relation = Relation(PredicateDecl("p", ("a",)))
        with pytest.raises(ArityError):
            relation.add((1, 2))

    def test_remove(self):
        relation = Relation(PredicateDecl("p", ("a",)))
        relation.add((1,))
        assert relation.remove((1,))
        assert not relation.remove((1,))
        assert len(relation) == 0

    def test_lookup_by_index(self):
        relation = Relation(PredicateDecl("p", ("a", "b")))
        for pair in [(1, 2), (1, 3), (2, 3)]:
            relation.add(pair)
        assert sorted(relation.lookup((1, None))) == [(1, 2), (1, 3)]
        assert sorted(relation.lookup((None, 3))) == [(1, 3), (2, 3)]
        assert list(relation.lookup((2, 2))) == []

    def test_lookup_all_wildcards(self):
        relation = Relation(PredicateDecl("p", ("a", "b")))
        relation.add((1, 2))
        assert list(relation.lookup((None, None))) == [(1, 2)]

    def test_index_cleaned_after_remove(self):
        relation = Relation(PredicateDecl("p", ("a", "b")))
        relation.add((1, 2))
        relation.remove((1, 2))
        assert list(relation.lookup((1, None))) == []


class TestFactStore:
    def test_declare_twice_identical_ok(self, store):
        store.declare(PredicateDecl("edge", ("src", "dst")))

    def test_declare_twice_conflicting(self, store):
        with pytest.raises(DuplicatePredicateError):
            store.declare(PredicateDecl("edge", ("a", "b", "c")))

    def test_unknown_predicate(self, store):
        with pytest.raises(UnknownPredicateError):
            store.add(Atom("nope", (1,)))

    def test_add_non_ground_fact(self, store):
        with pytest.raises(NotGroundError):
            store.add(Atom("edge", (X, 1)))

    def test_add_contains_remove(self, store):
        fact = Atom("edge", (1, 2))
        assert store.add(fact)
        assert store.contains(fact)
        assert store.remove(fact)
        assert not store.contains(fact)

    def test_count_and_total(self, store):
        store.add(Atom("edge", (1, 2)))
        store.add(Atom("edge", (2, 3)))
        store.add(Atom("Type", ("t", "T", "s")))
        assert store.count("edge") == 2
        assert store.total_facts() == 3

    def test_facts_iteration(self, store):
        store.add(Atom("edge", (1, 2)))
        assert list(store.facts("edge")) == [Atom("edge", (1, 2))]

    def test_matching_with_pattern(self, store):
        store.add(Atom("edge", (1, 2)))
        store.add(Atom("edge", (1, 3)))
        matches = sorted(f.args for f in store.matching(Atom("edge",
                                                             (1, X))))
        assert matches == [(1, 2), (1, 3)]

    def test_matching_repeated_variable(self, store):
        store.add(Atom("edge", (1, 1)))
        store.add(Atom("edge", (1, 2)))
        matches = [f.args for f in store.matching(Atom("edge", (X, X)))]
        assert matches == [(1, 1)]

    def test_clear_one_predicate(self, store):
        store.add(Atom("edge", (1, 2)))
        store.add(Atom("Type", ("t", "T", "s")))
        store.clear("edge")
        assert store.count("edge") == 0
        assert store.count("Type") == 1

    def test_clear_all(self, store):
        store.add(Atom("edge", (1, 2)))
        store.clear()
        assert store.total_facts() == 0

    def test_snapshot_restore_roundtrip(self, store):
        store.add(Atom("edge", (1, 2)))
        snapshot = store.snapshot()
        store.add(Atom("edge", (3, 4)))
        store.remove(Atom("edge", (1, 2)))
        store.restore(snapshot)
        assert store.contains(Atom("edge", (1, 2)))
        assert not store.contains(Atom("edge", (3, 4)))

    def test_snapshot_is_independent_copy(self, store):
        store.add(Atom("edge", (1, 2)))
        snapshot = store.snapshot()
        store.add(Atom("edge", (5, 6)))
        assert (5, 6) not in snapshot["edge"]


class TestCopyOnWriteCounters:
    """A session after a publish pays for the buckets it writes."""

    @pytest.fixture
    def database(self):
        database = DeductiveDatabase([
            PredicateDecl("edge", ("src", "dst")),
            PredicateDecl("label", ("node", "text")),
        ])
        for index in range(50):
            database.add_fact(Atom("edge", (index % 5, index)))
            database.add_fact(Atom("label", (index, f"n{index}")))
        return database

    def test_one_fact_copies_at_most_arity_buckets(self, database):
        pinned = database.export_snapshot()
        stats = database.begin_stats()
        database.add_fact(Atom("edge", (1, 99)))
        assert stats.cow_relations == 1
        assert 1 <= stats.cow_buckets_copied <= 2
        copied = stats.cow_buckets_copied
        # The src=1 bucket is owned now; dst=98 is a fresh bucket.
        database.add_fact(Atom("edge", (1, 98)))
        assert stats.cow_relations == 1
        assert stats.cow_buckets_copied == copied
        assert sorted(pinned.relation("edge").lookup((1, None))) == \
            [(1, dst) for dst in range(1, 50, 5)]

    def test_removal_that_empties_a_bucket_copies_nothing(self, database):
        database.export_snapshot()
        stats = database.begin_stats()
        database.remove_fact(Atom("label", (7, "n7")))
        assert stats.cow_relations == 1
        assert stats.cow_buckets_copied == 0

    def test_counters_reach_the_reports(self, database):
        database.export_snapshot()
        stats = database.begin_stats()
        database.add_fact(Atom("edge", (2, 77)))
        assert stats.as_dict()["cow_relations"] == 1
        assert "snapshot CoW" in stats.describe()
        registry = MetricsRegistry()
        registry.absorb_engine_stats(stats)
        assert registry.counters["engine.cow_relations"].value == 1
        assert "engine.cow_buckets_copied" in registry.counters
