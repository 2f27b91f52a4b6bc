"""The epoch-digest harness: one writer, concurrent readers, one oracle.

One writer churns through evolution sessions (most commit, every
``rollback_every``-th rolls back) while reader threads keep reading
``(epoch, digest)`` pairs and run a full consistency check every
``check_every`` reads.  The writer is the *serial oracle*: after every
commit it records the published epoch and the digest of the state it
published.  The topology follows from ``replicas``:

* ``0`` — writer and readers share this process's live model; readers
  digest published snapshots (the copy-on-write test);
* ``N >= 1`` — a primary and N replica processes; the writer commits
  through the primary's socket (a rolled-back session declares a type
  that is its own supertype, so the primary logs its ops *and* its
  rollback and ships all of it), readers poll the replicas and run
  consistency checks there, and with ``promote_after`` the primary is
  SIGKILLed mid-churn and a replica promoted.

Afterwards :class:`StressOutcome` checks that every observed pair
matches the oracle (no torn reads, no partially-applied or rolled-back
session ever visible), that each reader's epochs never go backwards,
that every check passed, and that every survivor ends on the oracle's
last ``(epoch, digest)``.  The digest walks **every** EDB fact, so a
single leaked fact changes it.  As a command::

    python -m repro.service.stress --replicas 2 --sessions 50
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.datalog.facts import edb_digest
from repro.errors import ReproError
from repro.manager import SchemaManager
from repro.workloads.synthetic import generate_schema, random_evolution

__all__ = ["StressOutcome", "edb_digest", "main", "run_stress"]

#: How long a replicated read or the final catch-up may wait (seconds).
READ_TIMEOUT = 30.0


@dataclass
class StressOutcome:
    """Everything the harness measured, plus the derived verdicts."""

    sessions: int
    commits: int
    rollbacks: int
    #: The serial oracle: epoch -> EDB digest, recorded by the writer
    #: immediately after each publication (plus the initial state).
    published: Dict[int, str]
    #: Per reader, the (epoch, digest) pairs it observed, in order.
    observations: List[List[Tuple[int, str]]] = field(default_factory=list)
    check_failures: int = 0
    checks_run: int = 0
    reader_errors: List[str] = field(default_factory=list)
    writer_error: Optional[str] = None
    #: Failovers survived mid-run.
    promotions: int = 0
    #: Per survivor, its final ``epoch`` and ``digest`` (a replicated
    #: node's entry is its whole ``status`` frame).
    survivors: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def total_reads(self) -> int:
        return sum(len(obs) for obs in self.observations)

    def truncate_oracle(self, max_epoch: int) -> int:
        """Forget oracle entries above *max_epoch*; returns how many.

        The failover adjustment: commits the dead primary acknowledged
        but never shipped durably to the promoted replica are *lost by
        design* (asynchronous replication), so the oracle must stop
        expecting them.  No reader can have observed a lost epoch —
        reads are served only at applied epochs, and the election
        picked the highest one.
        """
        lost = [epoch for epoch in self.published if epoch > max_epoch]
        for epoch in lost:
            del self.published[epoch]
        return len(lost)

    def torn_reads(self) -> List[Tuple[int, str]]:
        """Observed (epoch, digest) pairs that contradict the oracle."""
        return [pair
                for per_reader in self.observations
                for pair in per_reader
                if self.published.get(pair[0]) != pair[1]]

    def epochs_monotonic(self) -> bool:
        """Did every reader observe a non-decreasing epoch sequence?"""
        return all(
            all(a[0] <= b[0] for a, b in zip(obs, obs[1:]))
            for obs in self.observations)

    def converged(self) -> bool:
        """Does every survivor end on the oracle's last (epoch, digest)?"""
        final = max(self.published)
        return bool(self.survivors) and all(
            (node["epoch"], node["digest"]) == (final, self.published[final])
            for node in self.survivors.values())

    @property
    def linearizable(self) -> bool:
        return (not self.torn_reads() and self.epochs_monotonic()
                and self.check_failures == 0 and not self.reader_errors
                and self.writer_error is None and self.converged())


class _InProcess:
    """``replicas=0``: the writer and the readers share the live model."""

    transient: Tuple[type, ...] = ()

    def __init__(self, n_types: int, seed: int) -> None:
        self.manager = SchemaManager()
        self.schema = generate_schema(self.manager, n_types=n_types,
                                      seed=seed)
        self.model = self.manager.model
        self.model.enable_snapshots()
        self.rng = random.Random(seed + 1)

    def published(self) -> Tuple[int, str]:
        snapshot = self.model.snapshot()
        return snapshot.epoch, edb_digest(snapshot.db)

    def session(self, index: int, rollback: bool) -> Optional[Tuple[int, str]]:
        # random_evolution may append fresh type ids; remember the
        # frontier so a rollback can forget them again (later sessions
        # must not build on undone types).
        frontier = len(self.schema.type_ids)
        session = self.manager.begin_session()
        random_evolution(self.schema, session, self.rng)
        if rollback:
            session.rollback()
            del self.schema.type_ids[frontier:]
            return None
        session.commit()
        return self.published()

    def reader(self, slot: int) -> "_SnapshotReader":
        return _SnapshotReader(self.model)

    def survivors(self, epoch: int) -> Dict[str, Dict[str, object]]:
        return {"in-process": {"epoch": self.model.epoch,
                               "digest": edb_digest(self.model.db)}}

    def close(self) -> None:
        pass


class _SnapshotReader:
    def __init__(self, model) -> None:
        self.model = model

    def read(self) -> Tuple[int, str]:
        self.snapshot = self.model.snapshot()
        return self.snapshot.epoch, edb_digest(self.snapshot.db)

    def check(self) -> bool:
        return self.snapshot.check().consistent

    def close(self) -> None:
        pass


class _Replicated:
    """``replicas >= 1``: a primary and replica processes, over sockets."""

    def __init__(self, root: str, replicas: int) -> None:
        from repro.replication import ReplicatedSchema, ReplicationCluster
        from repro.wire import ProtocolError, WorkerDied
        # A node mid-rewire or briefly saturated: reconnect, read on.
        self.transient = (WorkerDied, ProtocolError, OSError)
        self.cluster = ReplicationCluster.open(root, replicas=replicas)
        try:
            self.schema = ReplicatedSchema(self.cluster)
        except BaseException:
            self.cluster.close()
            raise
        self.names = [handle.name for handle in self.cluster.replicas]

    def published(self) -> Tuple[int, str]:
        with self.cluster.client() as primary:
            reply = primary.read(op="digest")
        return reply["epoch"], reply["digest"]

    def session(self, index: int, rollback: bool) -> Optional[Tuple[int, str]]:
        from repro.replication import ReplicationError
        supertype = f" supertype R{index}" if rollback else ""
        try:
            reply = self.schema.define(
                f"schema Repl{index} is\ntype R{index}{supertype} is "
                f"[ a{index}: int; b{index}: string; ] end type R{index};\n"
                f"end schema Repl{index};", digest=True)
        except ReplicationError as exc:
            if rollback and "InconsistentSchemaError" in str(exc):
                return None
            raise
        published = reply["epoch"], reply["digest"]
        # Read-your-writes: a replica read carrying the token must serve
        # exactly the acknowledged write (there is no other writer).
        seen = self.schema.read(op="digest", timeout=READ_TIMEOUT)
        if (seen["epoch"], seen["digest"]) != published:
            raise ReproError(f"read-your-writes violated: wrote epoch "
                             f"{published[0]}, read epoch {seen['epoch']}")
        return published

    def promote(self) -> int:
        """SIGKILL the primary, promote a replica; the surviving epoch."""
        self.cluster.kill_primary()
        self.cluster.promote()
        self.schema.handle_failover()
        return self.schema.token

    def reader(self, slot: int) -> "_NodeReader":
        return _NodeReader(self.cluster, self.names[slot % len(self.names)])

    def survivors(self, epoch: int) -> Dict[str, Dict[str, object]]:
        self.cluster.wait_for_epoch(epoch, timeout=READ_TIMEOUT)
        nodes = self.cluster.statuses()
        for name, status in nodes.items():
            with self.cluster.client(name) as client:
                status.update(client.read(op="digest"))
        return nodes

    def close(self) -> None:
        self.schema.close()
        self.cluster.close()


class _NodeReader:
    def __init__(self, cluster, name: str) -> None:
        self.cluster, self.name, self.client = cluster, name, None

    def read(self) -> Tuple[int, str]:
        if self.client is None:
            self.client = self.cluster.client(self.name)
        reply = self.client.read(op="digest")
        return reply["epoch"], reply["digest"]

    def check(self) -> bool:
        return self.client.request({"kind": "check"})["consistent"]

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def run_stress(replicas: int = 0, sessions: int = 100, readers: int = 4,
               promote_after: Optional[int] = None, rollback_every: int = 5,
               check_every: int = 5, n_types: int = 12,
               seed: int = 7) -> StressOutcome:
    """Run the harness and return what happened (no asserts here).

    *n_types* and *seed* shape the in-process schema and its random
    evolution; *promote_after* (replicated only) fails the primary over
    before that session index.
    """
    if promote_after is not None and not replicas:
        raise ValueError("promote_after needs replicas")
    with tempfile.TemporaryDirectory(prefix="stress-") as root:
        topology = (_Replicated(root, replicas) if replicas
                    else _InProcess(n_types, seed))
        try:
            return _churn(topology, sessions, readers, promote_after,
                          rollback_every, check_every)
        finally:
            topology.close()


def _churn(topology, sessions: int, readers: int,
           promote_after: Optional[int], rollback_every: int,
           check_every: int) -> StressOutcome:
    outcome = StressOutcome(sessions=sessions, commits=0, rollbacks=0,
                            published=dict([topology.published()]))
    outcome.observations = [[] for _ in range(readers)]
    stop = threading.Event()
    check_lock = threading.Lock()

    def reader(slot: int) -> None:
        observed = outcome.observations[slot]
        handle = topology.reader(slot)
        try:
            while not stop.is_set():
                try:
                    observed.append(handle.read())
                    if check_every and len(observed) % check_every == 0:
                        consistent = handle.check()
                        with check_lock:
                            outcome.checks_run += 1
                            if not consistent:
                                outcome.check_failures += 1
                except topology.transient:
                    handle.close()
        except Exception as exc:  # pragma: no cover - failure reporting
            outcome.reader_errors.append(f"reader {slot}: {exc!r}")
        finally:
            handle.close()

    threads = [threading.Thread(target=reader, args=(slot,), daemon=True)
               for slot in range(readers)]
    for thread in threads:
        thread.start()
    try:
        for index in range(sessions):
            if index == promote_after:
                outcome.truncate_oracle(topology.promote())
                outcome.promotions += 1
            rollback = bool(rollback_every) \
                and (index + 1) % rollback_every == 0
            published = topology.session(index, rollback)
            if published is None:
                outcome.rollbacks += 1
            else:
                outcome.published[published[0]] = published[1]
                outcome.commits += 1
    except Exception as exc:
        outcome.writer_error = repr(exc)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=READ_TIMEOUT)
    # Readers only sample; every survivor must end on the last state.
    try:
        outcome.survivors = topology.survivors(max(outcome.published))
    except Exception as exc:
        outcome.reader_errors.append(f"convergence: {exc!r}")
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=0,
                        help="replica processes (0: in-process); the "
                             "primary is SIGKILLed halfway through")
    parser.add_argument("--sessions", type=int, default=50)
    parser.add_argument("--metrics-out", default=None,
                        help="write every survivor's status as JSON here")
    args = parser.parse_args(argv)
    outcome = run_stress(
        replicas=args.replicas, sessions=args.sessions,
        promote_after=args.sessions // 2 if args.replicas else None)
    final = max(outcome.published)
    print(f"stress: {outcome.commits} commits, {outcome.rollbacks} "
          f"rollbacks, {outcome.promotions} promotion(s), "
          f"{outcome.total_reads} reads, {outcome.checks_run} checks; "
          f"{len(outcome.survivors)} node(s), converged at epoch {final}: "
          f"{outcome.converged()}")
    if args.metrics_out:
        os.makedirs(os.path.dirname(os.path.abspath(args.metrics_out)),
                    exist_ok=True)
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump({"commits": outcome.commits,
                       "rollbacks": outcome.rollbacks,
                       "promotions": outcome.promotions,
                       "reads": outcome.total_reads, "final_epoch": final,
                       "nodes": outcome.survivors},
                      handle, indent=2, sort_keys=True)
    if outcome.linearizable:
        print("stress: ok")
        return 0
    print(f"stress: FAIL — torn reads {outcome.torn_reads()[:3]}, "
          f"monotonic {outcome.epochs_monotonic()}, check failures "
          f"{outcome.check_failures}, reader errors "
          f"{outcome.reader_errors[:3]}, writer error {outcome.writer_error}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
