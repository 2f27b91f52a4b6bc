"""The epoch-digest oracle across processes, including a forced failover.

Every fifth session is rolled back on the primary and shipped anyway,
and readers run consistency checks on the replicas.
"""

from repro.service.stress import run_stress


def test_replicated_stress_with_promotion_is_linearizable():
    outcome = run_stress(replicas=2, sessions=8, readers=2,
                         promote_after=4)
    assert outcome.commits == 7 and outcome.rollbacks == 1
    assert outcome.promotions == 1
    assert outcome.writer_error is None
    assert outcome.reader_errors == []
    assert outcome.torn_reads() == []
    assert outcome.epochs_monotonic()
    assert outcome.checks_run > 0 and outcome.check_failures == 0
    assert outcome.converged() and len(outcome.survivors) == 2
    assert outcome.linearizable
    assert outcome.total_reads > 0


def test_promoted_primary_serves_untorn_reads_over_a_long_tail():
    # Two readers per replica, so the replica that wins the election
    # keeps two readers polling it through 20 post-promotion sessions.
    outcome = run_stress(replicas=2, sessions=24, readers=4,
                         promote_after=4)
    assert outcome.commits == 20 and outcome.rollbacks == 4
    assert outcome.promotions == 1
    assert outcome.writer_error is None
    assert outcome.reader_errors == []
    assert outcome.torn_reads() == []
    assert outcome.epochs_monotonic()
    assert outcome.checks_run > 0 and outcome.check_failures == 0
    assert outcome.converged()
    assert outcome.linearizable
