"""WAL-shipping replication: a primary, N read replicas, failover.

The shard farm scales *writers* by partitioning schemas across
processes; this package scales *reads* of one schema set by copying its
evolution log.  Every member is a :class:`~repro.node.Node` process: a
primary streams durable WAL frames to its replicas, each replica
applies them and serves reads at its epoch (the committed sessions in
its log, the same count on every node).  Clients get read-your-writes
via epoch tokens, and a dead primary is survived by promoting the
replica with the longest durable log prefix.

Client surface::

    from repro.replication import ReplicationCluster, ReplicatedSchema

    with ReplicationCluster.open("/var/lib/gom-repl", replicas=4) as c:
        schema = ReplicatedSchema(c)
        schema.define("schema S is ... end schema S;")   # -> primary
        reply = schema.read("digest")                    # -> a replica,
        # never older than the define just acknowledged (epoch token).

See ``DESIGN.md`` §15 for the protocol, the promotion rules, and the
token semantics.  The proof is the one epoch-digest harness,
:func:`repro.service.stress.run_stress` with ``replicas=N``: rolled-back
sessions shipped to replicas, consistency checks on replicas, and a
forced promotion, under the same verdict as the in-process run.
"""

from repro.replication.client import (
    ReplicatedSchema,
    ReplicationClient,
    ReplicationError,
)
from repro.replication.cluster import ReplicationCluster
from repro.replication.node import ReplicationNode

__all__ = [
    "ReplicatedSchema",
    "ReplicationClient",
    "ReplicationCluster",
    "ReplicationError",
    "ReplicationNode",
]
