"""Unit tests for the nine-step evolution protocol (§3.5)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.datalog.terms import Atom
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.control.protocol import (
    ROLLBACK,
    SchemaEvolutionProtocol,
    always_rollback,
    choose_first,
    prefer_conversion,
)

INT = builtin_type("int")
STRING = builtin_type("string")


@pytest.fixture
def manager():
    manager = SchemaManager()
    manager.define("""
    schema S is
    type T is [ x : int; ] end type T;
    end schema S;
    """)
    return manager


def tid_of(manager):
    return manager.model.type_id("T", manager.model.schema_id("S"))


class TestHappyPath:
    def test_consistent_change_ends_at_step_5(self, manager):
        def changes(session):
            prims = manager.analyzer.primitives(session)
            prims.add_attribute(tid_of(manager), "y", INT)

        result = manager.evolve(changes)
        assert result.outcome == "consistent"
        assert result.succeeded
        assert result.rounds == 1
        assert any("ended successfully" in step.description
                   for step in result.transcript)

    def test_transcript_follows_step_numbers(self, manager):
        result = manager.evolve(lambda session: None)
        steps = [step.step for step in result.transcript]
        assert steps[0] == 1
        assert 4 in steps and 5 in steps


class TestRepairRounds:
    def test_first_repair_undoes_bad_change(self, manager):
        """Adding an op without code; repair 1 deletes the declaration."""
        def changes(session):
            prims = manager.analyzer.primitives(session)
            prims.add_operation(tid_of(manager), "broken", (), INT)

        result = manager.evolve(changes, chooser=choose_first)
        assert result.outcome == "repaired"
        assert result.chosen_repairs
        assert manager.model.decl_id(tid_of(manager), "broken") is None
        assert manager.check().consistent

    def test_conversion_preferring_chooser(self, manager):
        manager.runtime.create_object("T", {"x": 1})
        def changes(session):
            prims = manager.analyzer.primitives(session)
            prims.add_attribute(tid_of(manager), "y", INT)

        result = manager.evolve(changes, chooser=prefer_conversion)
        assert result.succeeded
        # the slot fact was inserted rather than the attribute dropped
        attrs = dict(manager.model.attributes(tid_of(manager)))
        assert "y" in attrs

    def test_rollback_choice(self, manager):
        before = manager.model.db.edb.snapshot()
        def changes(session):
            prims = manager.analyzer.primitives(session)
            prims.add_operation(tid_of(manager), "broken", (), INT)

        result = manager.evolve(changes, chooser=always_rollback)
        assert result.outcome == "rolled-back"
        assert manager.model.db.edb.snapshot() == before

    def test_chooser_with_inputs(self, manager):
        """A chooser may supply values for repair placeholders."""
        manager.runtime.create_object("T", {"x": 1})
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        prims.add_attribute(tid_of(manager), "y", INT)

        def chooser(violation, repairs):
            for index, explained in enumerate(repairs):
                if explained.repair.kind == "validate-conclusion" \
                        and not explained.repair.requires_user_input():
                    return index
            return ROLLBACK

        protocol = SchemaEvolutionProtocol(session, chooser=chooser)
        result = protocol.run()
        assert result.succeeded

    def test_invalid_choice_raises(self, manager):
        session = manager.begin_session()
        prims = manager.analyzer.primitives(session)
        prims.add_operation(tid_of(manager), "broken", (), INT)
        protocol = SchemaEvolutionProtocol(
            session, chooser=lambda violation, repairs: 999)
        with pytest.raises(Exception):
            protocol.run()

    def test_gave_up_after_max_rounds(self, manager):
        session = manager.begin_session()
        # A violation whose "repair" we keep re-introducing via a chooser
        # that repairs one thing while the session stays broken: simplest
        # is a chooser that always picks a valid repair but the seeded
        # inconsistency count exceeds max_rounds.
        prims = manager.analyzer.primitives(session)
        for index in range(4):
            prims.add_operation(tid_of(manager), f"broken{index}", (), INT)
        protocol = SchemaEvolutionProtocol(session, chooser=choose_first,
                                           max_rounds=2)
        result = protocol.run()
        assert result.outcome == "gave-up"
        assert result.rounds == 2

    def test_describe_renders(self, manager):
        result = manager.evolve(lambda session: None)
        text = result.describe()
        assert "protocol outcome" in text


RING_SESSION = """
import hashlib, sys
from repro.manager import SchemaManager
with SchemaManager.open(sys.argv[1]) as manager:
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    sid = prims.add_schema("Ring")
    tids, prev = [], None
    for index in range(8):
        prev = prims.add_type(sid, f"R{index}",
                              supertypes=(prev,) if prev else ())
        tids.append(prev)
    session.commit()

    def close_ring(session):
        manager.analyzer.primitives(session).add_supertype(tids[0], tids[-1])

    session = manager.begin_session()
    close_ring(session)
    print([repr(v) for v in session.check().violations])
    session.rollback()
    result = manager.evolve(close_ring)
    print(result.outcome,
          [c.repair.display_action for c in result.chosen_repairs])
with open(f"{sys.argv[1]}/wal.log", "rb") as handle:
    print(hashlib.sha256(handle.read()).hexdigest())
"""


class TestHashSeedIndependence:
    def test_violation_order_and_wal_bytes_do_not_depend_on_hash_seed(
            self, tmp_path):
        # Id(kind, number, label=None) hashes through hash(None), an
        # address on Python 3.11, so set order differs per process even
        # under one PYTHONHASHSEED; the protocol repairs violations[0]
        # and logs it, so the report's order must not follow set order.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            directory = tmp_path / f"seed{hash_seed}"
            run = subprocess.run(
                [sys.executable, "-c", RING_SESSION, str(directory)],
                env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        violations, outcome, _wal = outputs[0].splitlines()
        assert "subtype_acyclic" in violations
        assert outcome.startswith("repaired")
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
