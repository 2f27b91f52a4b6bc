"""The epoch-digest linearizability oracle, run across processes.

The single-process harness's oracle (:mod:`repro.service.stress`),
with the writer committing through the primary's socket and reader
threads polling the replicas: no torn reads (a replica's digest at an
epoch equals the primary's), monotonic epochs per reader, and digest
equality at every epoch — across one forced promotion, after which the
oracle is truncated to the new primary's epoch (acked-but-unshipped
commits are lost *by design*).  The verdicts are
:class:`~repro.service.stress.StressOutcome`'s, as in both harnesses.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.replication.client import (
    ReplicatedSchema,
    ReplicationClient,
    ReplicationError,
)
from repro.replication.cluster import ReplicationCluster
from repro.service.stress import StressOutcome
from repro.wire import ProtocolError, WorkerDied

__all__ = ["run_replicated_stress"]


def _session_source(index: int) -> str:
    """One small committed session's worth of schema definition."""
    return (f"schema Repl{index} is\n"
            f"type R{index} is [ a{index}: int; b{index}: string; ] "
            f"end type R{index};\n"
            f"end schema Repl{index};")


def run_replicated_stress(root: str, replicas: int = 2,
                          sessions: int = 30, readers_per_replica: int = 1,
                          promote_after: Optional[int] = None,
                          read_timeout: float = 20.0) -> StressOutcome:
    """Churn *sessions* writes through a cluster under concurrent reads.

    With *promote_after*, the primary is SIGKILLed after that many
    committed sessions, a replica is promoted, and the remaining churn
    continues against it.  Returns the measured
    :class:`~repro.service.stress.StressOutcome` (no asserts here).
    """
    cluster = ReplicationCluster.open(root, replicas=replicas)
    try:
        return _run(cluster, sessions, readers_per_replica, promote_after,
                    read_timeout)
    finally:
        cluster.close()


def _run(cluster: ReplicationCluster, sessions: int,
         readers_per_replica: int, promote_after: Optional[int],
         read_timeout: float) -> StressOutcome:
    schema = ReplicatedSchema(cluster)
    with cluster.client() as probe:
        initial = probe.read(op="digest")
    outcome = StressOutcome(sessions=sessions, commits=0, rollbacks=0,
                            published={initial["epoch"]: initial["digest"]})
    replica_names = [handle.name for handle in cluster.replicas]
    n_readers = max(1, readers_per_replica) * max(1, len(replica_names))
    # One observation stream per reader thread, plus a dedicated one for
    # the writer's read-your-writes probes (it must not interleave with
    # a reader polling a different replica — the monotonicity verdict
    # is per observed stream).
    outcome.observations = [[] for _ in range(n_readers + 1)]
    probe_observations = outcome.observations[n_readers]
    stop = threading.Event()

    def reader(slot: int) -> None:
        name = replica_names[slot % len(replica_names)]
        observed = outcome.observations[slot]
        client: Optional[ReplicationClient] = None
        try:
            while not stop.is_set():
                if client is None:
                    client = cluster.client(name)
                try:
                    reply = client.read(op="digest")
                except (WorkerDied, ProtocolError, OSError):
                    # The node is mid-rewire or briefly saturated:
                    # reconnect and keep observing.
                    client.close()
                    client = None
                    continue
                observed.append((reply["epoch"], reply["digest"]))
        except Exception as exc:  # pragma: no cover - failure reporting
            outcome.reader_errors.append(f"reader {slot}: {exc!r}")
        finally:
            if client is not None:
                client.close()

    threads = [threading.Thread(target=reader, args=(slot,), daemon=True)
               for slot in range(n_readers)]
    for thread in threads:
        thread.start()
    try:
        for index in range(sessions):
            if promote_after is not None and index == promote_after:
                cluster.kill_primary()
                cluster.promote()
                schema.handle_failover()
                outcome.promotions += 1
                outcome.truncate_oracle(schema.token)
            try:
                reply = schema.define(_session_source(index), digest=True)
            except (ReplicationError, WorkerDied, ProtocolError,
                    OSError) as exc:
                outcome.writer_error = repr(exc)
                break
            outcome.published[reply["epoch"]] = reply["digest"]
            outcome.commits += 1
            # Read-your-writes probe: a replica read carrying the epoch
            # token must come back at or past the acknowledged write.
            check = schema.read(op="digest", timeout=read_timeout)
            if check["epoch"] < schema.token:
                outcome.reader_errors.append(
                    f"read-your-writes violated: token {schema.token}, "
                    f"served epoch {check['epoch']}")
            probe_observations.append((check["epoch"], check["digest"]))
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=read_timeout)
        schema.close()
    return outcome
