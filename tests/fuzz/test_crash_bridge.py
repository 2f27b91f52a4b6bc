"""Crash matrix × fuzz corpus: recovery under a fuzzed workload.

The scripted crash-matrix suite (tests/storage/test_crash_matrix.py)
proves recovery for a hand-written workload.  This bridge replays a
*minimized fuzz corpus history* through a durable manager with every
named crash point armed, and asserts the recovered state is exactly one
of the reference states after k committed sessions — the fuzz driver's
``digests_by_commits`` — and fully consistent.
"""

import os

import pytest

from repro.datalog.facts import edb_digest
from repro.fuzz import History
from repro.fuzz.oracles import SessionDriver
from repro.manager import SchemaManager
from repro.storage.faults import CRASH_POINTS, CrashPoint, FaultInjector

CORPUS_FILE = os.path.join(os.path.dirname(__file__), "corpus",
                           "regress_public_exists_repair.json")

#: The bridge drives one durable manager; ``manifest.*`` points fire
#: only on farm-manifest saves and are exercised by the dedicated
#: crash-matrix manifest tests (tests/storage/test_crash_matrix.py).
BRIDGE_POINTS = tuple(point for point in CRASH_POINTS
                      if not point.startswith("manifest."))


@pytest.fixture(scope="module")
def history():
    return History.load(CORPUS_FILE)


@pytest.fixture(scope="module")
def reference_digests(history):
    """EDB digest after k committed sessions, from an in-memory run."""
    failures = []
    with SchemaManager(features=list(history.features)) as manager:
        result = SessionDriver("reference", manager, failures).run(history)
    assert not failures, [f.describe() for f in failures]
    assert result.commits >= 2, "bridge history must commit sessions"
    return result.digests_by_commits


def _run_durable(directory, history, injector):
    """The fuzz driver against a durable store, checkpointing after
    every commit so the snapshot/checkpoint crash points are visited."""
    manager = SchemaManager.open(directory, features=list(history.features),
                                 injector=injector)
    manager.model.enable_snapshots()
    failures = []
    SessionDriver("bridge", manager, failures,
                  checkpoint_every=1).run(history)
    manager.close()
    return failures


@pytest.mark.parametrize("point", BRIDGE_POINTS)
def test_recovery_from_every_crash_point(tmp_path, history,
                                         reference_digests, point):
    directory = str(tmp_path / "db")
    injector = FaultInjector().arm(point, occurrence=1)
    with pytest.raises(CrashPoint) as crash:
        _run_durable(directory, history, injector)
    assert crash.value.point == point

    recovered = SchemaManager.open(directory,
                                   features=list(history.features))
    try:
        digest = edb_digest(recovered.model.db)
        assert digest in reference_digests, (
            f"recovered state after crash at {point!r} matches no "
            f"committed-session prefix of the fuzz history")
        durable_commits = reference_digests.index(digest)
        fsyncd = injector.visits.get("wal.after_fsync", 0)
        assert durable_commits >= fsyncd, (
            "recovery lost a session whose commit record was fsync'd")
        report = recovered.check()
        assert report.consistent, report.describe()
    finally:
        recovered.close()


def test_unfaulted_bridge_run_matches_reference(tmp_path, history,
                                                reference_digests):
    directory = str(tmp_path / "db")
    failures = _run_durable(directory, history, FaultInjector())
    assert not failures, [f.describe() for f in failures]
    recovered = SchemaManager.open(directory,
                                   features=list(history.features))
    try:
        assert edb_digest(recovered.model.db) == reference_digests[-1]
    finally:
        recovered.close()
