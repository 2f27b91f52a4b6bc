"""Process supervision and failover for a replication group.

:class:`ReplicationCluster` spawns one primary and N replica
*processes* (each a :func:`repro.replication.node.node_main`), hands
out client connections, and runs the failover protocol:

1. :meth:`kill_primary` (or a real crash) removes the primary;
2. :meth:`promote` polls the surviving replicas until their durable
   byte offsets stop moving (the dead primary can ship nothing more,
   so the offsets settle as the apply buffers drain), elects the
   replica with the **highest durable offset** — the longest committed
   prefix, of which every other log is itself a prefix — ties broken
   by node name;
3. the winner is told to ``promote`` (it truncates its volatile tail
   and starts accepting writes), every other replica is told to
   ``rewire`` to it, and the cluster records the new topology.

Commits the old primary acknowledged but never shipped durably to the
winner are **lost** — asynchronous replication's documented trade; the
stress oracle truncates its expectations accordingly
(:meth:`repro.service.stress.StressOutcome.truncate_oracle`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.replication.client import ReplicationClient, ReplicationError
from repro.wire import ProtocolError, WorkerDied, recv_message

#: Node directories under the cluster root.
NODE_DIR_FORMAT = "node-%02d"


@dataclass
class NodeHandle:
    """One node process and how to reach it."""

    name: str
    directory: str
    process: object
    conn: object
    host: str = "127.0.0.1"
    port: int = 0
    role: str = "replica"
    alive: bool = field(default=True)

    @property
    def address(self):
        return (self.host, self.port)


class ReplicationCluster:
    """Owns the node processes of one replication group."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.nodes: Dict[str, NodeHandle] = {}
        self.primary_name: Optional[str] = None
        self._closed = False
        self._next_index = 0

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(cls, root: str, replicas: int = 2,
             features: Optional[Sequence[str]] = None
             ) -> "ReplicationCluster":
        """Start one primary and *replicas* follower processes."""
        cluster = cls(root)
        os.makedirs(root, exist_ok=True)
        try:
            primary = cluster._spawn("primary", None, features)
            cluster.primary_name = primary.name
            for _ in range(replicas):
                cluster._spawn("replica", primary.address, features)
        except BaseException:
            cluster.close()
            raise
        return cluster

    def _spawn(self, role: str, primary_address, features) -> NodeHandle:
        import multiprocessing
        from repro.replication.node import node_main
        context = multiprocessing.get_context()
        index = self._next_index
        self._next_index += 1
        name = NODE_DIR_FORMAT % index
        directory = os.path.join(self.root, name)
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=node_main,
            args=(child_conn, directory, role, primary_address,
                  list(features) if features else None),
            name=f"repl-{name}", daemon=True)
        process.start()
        child_conn.close()
        handle = NodeHandle(name=name, directory=directory, process=process,
                            conn=parent_conn, role=role)
        self.nodes[name] = handle
        try:
            ready = recv_message(parent_conn, timeout=60.0)
        except (ProtocolError, WorkerDied) as exc:
            self._reap(handle, kill=True)
            raise ReproError(f"node {name} never became ready: {exc}")
        if ready.get("kind") == "error":
            self._reap(handle, kill=True)
            raise ReproError(f"node {name} failed to start: "
                             f"{ready.get('error')}")
        handle.port = ready["port"]
        parent_conn.close()
        return handle

    def _reap(self, handle: NodeHandle, kill: bool = False) -> None:
        handle.alive = False
        if kill and handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=10.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=10.0)
        try:
            handle.conn.close()
        except OSError:
            pass
        if not handle.process.is_alive():
            handle.process.close()

    def close(self) -> None:
        """Shut every node down cleanly (kill the unresponsive)."""
        if self._closed:
            return
        self._closed = True
        for handle in self.nodes.values():
            if not handle.alive:
                continue
            try:
                with self.client(handle.name) as client:
                    client.shutdown()
            except (ReplicationError, WorkerDied, ProtocolError, OSError):
                pass
        for handle in self.nodes.values():
            if handle.alive:
                self._reap(handle)

    def __enter__(self) -> "ReplicationCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- topology --------------------------------------------------------------

    @property
    def primary(self) -> NodeHandle:
        return self.nodes[self.primary_name]

    @property
    def replicas(self) -> List[NodeHandle]:
        return [handle for handle in self.nodes.values()
                if handle.alive and handle.name != self.primary_name]

    def client(self, name: Optional[str] = None) -> ReplicationClient:
        """A fresh connection to *name* (default: the primary)."""
        handle = self.nodes[name] if name else self.primary
        return ReplicationClient(handle.address)

    def statuses(self) -> Dict[str, Dict[str, object]]:
        """Live nodes' status frames (dead nodes are skipped)."""
        result = {}
        for handle in self.nodes.values():
            if not handle.alive:
                continue
            try:
                with self.client(handle.name) as client:
                    result[handle.name] = client.status()
            except (ReplicationError, WorkerDied, ProtocolError, OSError):
                pass
        return result

    def wait_for_epoch(self, epoch: int, timeout: float = 30.0) -> None:
        """Block until every live replica has applied *epoch*."""
        deadline = time.monotonic() + timeout
        for handle in self.replicas:
            remaining = max(0.1, deadline - time.monotonic())
            with self.client(handle.name) as client:
                client.read(op="epoch", min_epoch=epoch, timeout=remaining)

    # -- failover --------------------------------------------------------------

    def kill_primary(self) -> str:
        """SIGKILL the primary process (simulating a crash)."""
        handle = self.primary
        self._reap(handle, kill=True)
        return handle.name

    def promote(self, settle_timeout: float = 30.0) -> str:
        """Elect and promote a new primary; rewire the other replicas.

        Returns the promoted node's name.  Requires at least one live
        replica.
        """
        candidates = self.replicas
        if not candidates:
            raise ReproError("no live replica to promote")
        offsets = self._settled_offsets(candidates, settle_timeout)
        winner = max(candidates,
                     key=lambda handle: (offsets[handle.name], handle.name))
        with self.client(winner.name) as client:
            client.promote()
        winner.role = "primary"
        old_primary = self.nodes.get(self.primary_name)
        if old_primary is not None and old_primary.alive:
            # A still-breathing old primary must stop taking writes;
            # this reproduction demotes by shutdown (no fencing tokens).
            try:
                with self.client(old_primary.name) as client:
                    client.shutdown()
            except (ReplicationError, WorkerDied, ProtocolError, OSError):
                pass
            self._reap(old_primary)
        self.primary_name = winner.name
        for handle in self.replicas:
            with self.client(handle.name) as client:
                client.rewire(winner.host, winner.port)
        return winner.name

    def _settled_offsets(self, candidates: List[NodeHandle],
                         timeout: float) -> Dict[str, int]:
        """Durable offsets once they stop moving (apply buffers drained)."""
        deadline = time.monotonic() + timeout
        previous: Optional[Dict[str, int]] = None
        while True:
            offsets = {}
            for handle in candidates:
                with self.client(handle.name) as client:
                    offsets[handle.name] = client.status()["durable_offset"]
            if offsets == previous or time.monotonic() > deadline:
                return offsets
            previous = offsets
            time.sleep(0.05)
