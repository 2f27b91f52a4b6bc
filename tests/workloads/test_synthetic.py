"""Tests for the synthetic workload generators (bench substrate)."""

import random

import pytest

from repro.manager import SchemaManager
from repro.workloads.synthetic import (
    EVOLUTION_KINDS,
    generate_schema,
    random_evolution,
    seeded_violation,
)


class TestGeneration:
    def test_generated_schema_is_consistent(self):
        manager = SchemaManager()
        generate_schema(manager, 30, seed=7)
        assert manager.check().consistent

    def test_requested_size(self):
        manager = SchemaManager()
        schema = generate_schema(manager, 25, seed=1)
        assert len(schema.type_ids) == 25
        assert manager.model.db.count("Attr") == 25 * 3

    def test_deterministic_for_seed(self):
        rows = []
        for _ in range(2):
            manager = SchemaManager()
            generate_schema(manager, 15, seed=42)
            rows.append(sorted(repr(f)
                               for f in manager.model.db.facts("Attr")))
        assert rows[0] == rows[1]

    def test_check_true_commits_via_ees(self):
        manager = SchemaManager()
        generate_schema(manager, 5, seed=3, check=True)
        assert manager.check().consistent


class TestEvolutionSteps:
    @pytest.mark.parametrize("kind", EVOLUTION_KINDS)
    def test_each_kind_keeps_consistency(self, kind):
        manager = SchemaManager()
        schema = generate_schema(manager, 12, seed=5)
        session = manager.begin_session()
        rng = random.Random(9)
        applied = random_evolution(schema, session, rng, kind=kind)
        assert applied == kind
        report = session.check()
        assert report.consistent, (kind, report.describe())
        session.commit()


class TestSeededViolations:
    @pytest.mark.parametrize("kind,expected", [
        ("dangling_domain", "ref_Attr_domain_Type"),
        ("duplicate_type_name", "type_name_unique"),
        ("subtype_cycle", "subtype_acyclic"),
        ("missing_code", "decl_has_code"),
        ("bad_refinement", "refine_same_name"),
    ])
    def test_each_kind_detected_by_expected_constraint(self, kind,
                                                       expected):
        manager = SchemaManager()
        schema = generate_schema(manager, 12, seed=11)
        session = manager.begin_session()
        seeded_violation(schema, session, random.Random(2), kind)
        violations = session.check().violations
        assert expected in {v.constraint.name for v in violations}
        # Never a bare yes/no (§2.1): some violation comes with repairs.
        assert any(session.repairs(v) for v in violations[:3])
        session.rollback()

    def test_unknown_kind_rejected(self):
        manager = SchemaManager()
        schema = generate_schema(manager, 5, seed=1)
        session = manager.begin_session()
        with pytest.raises(ValueError):
            seeded_violation(schema, session, random.Random(1), "nope")


class TestIncrementalEquivalence:
    def test_delta_equals_full_over_many_random_steps(self):
        """Session-level version of the E5 soundness claim."""
        manager = SchemaManager()
        schema = generate_schema(manager, 20, seed=13)
        rng = random.Random(77)
        for step in range(8):
            session = manager.begin_session()
            random_evolution(schema, session, rng)
            if step % 3 == 0:
                seeded_violation(schema, session, rng, "missing_code")
            delta = session.check("delta")
            full = session.check("full")
            delta_keys = {(v.constraint.name, v.theta)
                          for v in delta.violations}
            full_keys = {(v.constraint.name, v.theta)
                         for v in full.violations}
            assert delta_keys == full_keys
            session.rollback()
