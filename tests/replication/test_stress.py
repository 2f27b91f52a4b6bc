"""The cross-process epoch-digest oracle, including a forced failover."""

from repro.replication.stress import run_replicated_stress


def test_replicated_stress_with_promotion_is_linearizable(tmp_path):
    outcome = run_replicated_stress(
        str(tmp_path / "stress"), replicas=2, sessions=8,
        promote_after=4)
    assert outcome.commits == 8
    assert outcome.promotions == 1
    assert outcome.writer_error is None
    assert outcome.reader_errors == []
    assert outcome.torn_reads() == []
    assert outcome.epochs_monotonic()
    assert outcome.linearizable
    assert outcome.total_reads > 0


def test_promoted_primary_serves_untorn_reads_over_a_long_tail(tmp_path):
    # Two readers per replica, so the replica that wins the election
    # keeps two readers polling it through 20 post-promotion commits.
    outcome = run_replicated_stress(
        str(tmp_path / "stress"), replicas=2, sessions=24,
        promote_after=4, readers_per_replica=2)
    assert outcome.commits == 24
    assert outcome.promotions == 1
    assert outcome.writer_error is None
    assert outcome.reader_errors == []
    assert outcome.torn_reads() == []
    assert outcome.epochs_monotonic()
    assert outcome.linearizable
