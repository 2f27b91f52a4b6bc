"""The replication smoke: churn, SIGKILL the primary, survive. CLI.

The CI gate for the replication layer::

    python -m repro.replication.smoke --replicas 2 --sessions 50 \
        --promote-after 25 --metrics-out artifacts/replication_lag.json

Runs the cross-process oracle (:mod:`repro.replication.stress`) with
the primary SIGKILLed mid-churn and exits non-zero unless the outcome
is linearizable and the final digests converge.  ``--metrics-out``
writes every node's ``status`` (lag, epoch, metrics) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument("--sessions", type=int, default=50)
    parser.add_argument("--promote-after", type=int, default=None,
                        help="SIGKILL the primary after this many "
                             "sessions (default: half of --sessions)")
    parser.add_argument("--root", default=None,
                        help="cluster directory (default: a temp dir)")
    parser.add_argument("--metrics-out", default=None,
                        help="write per-node metrics JSON here")
    args = parser.parse_args(argv)
    promote_after = args.promote_after
    if promote_after is None:
        promote_after = args.sessions // 2

    from repro.replication.cluster import ReplicationCluster
    from repro.replication.stress import _run

    root = args.root or tempfile.mkdtemp(prefix="repl-smoke-")
    cluster = ReplicationCluster.open(root, replicas=args.replicas)
    failures = []
    try:
        outcome = _run(cluster, args.sessions, readers_per_replica=1,
                       promote_after=promote_after, read_timeout=30.0)
        print(f"replication-smoke: {outcome.commits} commits, "
              f"{outcome.promotions} promotion(s), "
              f"{outcome.total_reads} replica reads")
        if outcome.commits != args.sessions:
            failures.append(f"only {outcome.commits}/{args.sessions} "
                            f"sessions committed")
        if outcome.promotions != 1:
            failures.append("promotion never converged")
        if not outcome.linearizable:
            failures.append(
                f"not linearizable: torn reads {outcome.torn_reads()[:3]}, "
                f"monotonic {outcome.epochs_monotonic()}, reader errors "
                f"{outcome.reader_errors[:3]}, writer error "
                f"{outcome.writer_error}")

        # Every surviving node must converge to the same digest at the
        # final epoch (readers above only sample; this is exhaustive).
        final_epoch = max(outcome.published)
        cluster.wait_for_epoch(final_epoch, timeout=60.0)
        digests = {}
        statuses = cluster.statuses()
        for name in statuses:
            with cluster.client(name) as client:
                digests[name] = client.read(op="digest")["digest"]
        if len(set(digests.values())) != 1:
            failures.append(f"divergent final digests: {digests}")
        elif next(iter(digests.values())) != outcome.published[final_epoch]:
            failures.append("final digests disagree with the oracle")
        print(f"replication-smoke: {len(digests)} node(s) digest-equal "
              f"at epoch {final_epoch}")

        if args.metrics_out:
            os.makedirs(os.path.dirname(os.path.abspath(args.metrics_out)),
                        exist_ok=True)
            artifact = {"sessions": outcome.commits,
                        "promotions": outcome.promotions,
                        "replica_reads": outcome.total_reads,
                        "final_epoch": final_epoch, "nodes": statuses}
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=True)
            print(f"replication-smoke: metrics -> {args.metrics_out}")
    finally:
        cluster.close()

    if failures:
        print("replication-smoke: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("replication-smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
