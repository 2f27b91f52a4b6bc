"""replicated_commit — DDL text to a replica's applied epoch.

One primary and one replica process.  Each op writes a three-type
schema on the primary, then reads the epoch on the replica with the
acknowledged epoch as its token; latency is submit to replica-visible.
Acknowledgement is the primary's whole session; the rest is log
shipping plus the replica's apply, the only workload where socket
framing and follower code run.
"""

import random
import time

from repro.replication import (
    ReplicationClient,
    ReplicationCluster,
    ReplicationError,
)

from workloads.common import Workload, seeded_plan, sized

DOMAINS = ("int", "float", "string")
READ_TIMEOUT = 30.0


def schema_source(index, domains):
    """Three four-attribute types; *domains* are the seeded part."""
    types = "\n".join(
        f"  type R{index}x{t} is [ a: {domains[4 * t]}; "
        f"b: {domains[4 * t + 1]}; c: {domains[4 * t + 2]}; "
        f"d: {domains[4 * t + 3]}; ] end type R{index}x{t};"
        for t in range(3))
    return (f"schema RS{index} is\ninterface\n{types}\n"
            f"end schema RS{index};")


class ReplicatedCommit(Workload):
    name = "replicated_commit"
    BASE_OPS = 150

    @staticmethod
    def preloaded(scale):
        return sized(70, scale, 4)

    @classmethod
    def plan(cls, seed, count, scale, first=None):
        """Op = (schema index, twelve attribute domains, name seed)."""
        first = cls.preloaded(scale) if first is None else first
        master = random.Random(f"replicated_commit:{first}")
        return seeded_plan(f"replicated_commit:{first}", seed, [
            (first + i, tuple(master.choice(DOMAINS) for _ in range(12)))
            for i in range(count)])

    def __init__(self, directory, seed, scale, spans, traced=False):
        super().__init__(directory, seed, scale, spans, traced)
        self.cluster = ReplicationCluster.open(directory, replicas=1)
        try:
            self.primary = self.cluster.client()
            self.replica = ReplicationClient(
                self.cluster.replicas[0].address)
            for index, domains, _name_seed in self.plan(
                    seed, self.preloaded(scale), scale, first=0):
                reply = self.primary.write(schema_source(index, domains))
            self.replica.read(op="epoch", min_epoch=reply["epoch"],
                              timeout=READ_TIMEOUT)
            if not self.digests_match():
                raise RuntimeError("replicated_commit: replica diverged "
                                   "in set-up")
        except BaseException:
            self.close()
            raise
        spans.wrap(self.primary, "write", "replication.write_ack")
        spans.wrap(self.replica, "read", "replication.ship_apply")
        self.shipped_at_setup = self.bytes_shipped()

    def node_pids(self):
        return [handle.process.pid for handle in self.cluster.nodes.values()]

    def run(self, op):
        index, domains, _name_seed = op
        source = schema_source(index, domains)
        with self.clock as clock:
            try:
                ack = self.primary.write(source)
                seen = self.replica.read(op="epoch", min_epoch=ack["epoch"],
                                         timeout=READ_TIMEOUT)
            except ReplicationError:
                return clock.seconds, False
        if self.traced:
            self.counts["ddl_bytes"] += len(source)
            self.counts["commits"] += 1
        return clock.seconds, seen["epoch"] >= ack["epoch"]

    # -- after the measured phase ----------------------------------------------

    def digest(self):
        """(primary digest, replica digest) at the primary's epoch."""
        ours = self.primary.read(op="digest")
        theirs = self.replica.read(op="digest", min_epoch=ours["epoch"],
                                   timeout=READ_TIMEOUT)
        return ours["digest"], theirs["digest"]

    def digests_match(self):
        ours, theirs = self.digest()
        return ours == theirs

    def verify(self):
        return {"digest_match": self.digests_match()}

    def bytes_shipped(self):
        return sum(status["metrics"]["counters"].get("repl.bytes_applied", 0)
                   for status in self.cluster.statuses().values())

    def probe(self):
        statuses = self.cluster.statuses()
        lag = max(status["lag_seconds"] for status in statuses.values()
                  if status["role"] == "replica")
        probes = {
            "replication.lag_ms_end": lag * 1000.0,
            "replication.bytes_shipped":
                self.bytes_shipped() - self.shipped_at_setup,
            "replication.digest_match": float(self.digests_match()),
        }
        self.close()
        started = time.perf_counter()
        self.recovered_digest(self.directory)
        probes["storage.recovery_ms"] = \
            (time.perf_counter() - started) * 1000.0
        return probes

    def close(self):
        for client in (getattr(self, "primary", None),
                       getattr(self, "replica", None)):
            if client is not None:
                client.close()
        self.cluster.close()

    @classmethod
    def recovered_digest(cls, directory):
        """Restart both nodes from their logs; both must agree again."""
        cluster = ReplicationCluster.open(directory, replicas=1)
        try:
            with cluster.client() as primary:
                ours = primary.read(op="digest")
            with ReplicationClient(cluster.replicas[0].address) as replica:
                theirs = replica.read(op="digest", min_epoch=ours["epoch"],
                                      timeout=READ_TIMEOUT)
            return ours["digest"], theirs["digest"]
        finally:
            cluster.close()
