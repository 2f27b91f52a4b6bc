"""Process supervision and failover for a replication group.

:class:`ReplicationCluster` spawns one primary and N replica
*processes* (each a :class:`~repro.replication.node.ReplicationNode`,
started and reaped by :func:`repro.node.spawn` / :func:`repro.node.reap`),
hands out client connections, and runs the failover protocol:

1. :meth:`kill_primary` (or a real crash) removes the primary;
2. :meth:`promote` waits until the survivors' durable offsets stop
   moving and elects the **highest** — the longest committed prefix,
   of which every other log is a prefix — ties broken by name;
3. the winner is told to ``promote``, every other replica to
   ``rewire`` to it.

Commits the old primary acknowledged but never shipped durably to the
winner are **lost** — asynchronous replication's documented trade.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.node import NodeError, NodeHandle, reap, spawn
from repro.replication.client import ReplicationClient
from repro.replication.node import ReplicationNode
from repro.wire import ProtocolError, WorkerDied

#: Node directories under the cluster root.
NODE_DIR_FORMAT = "node-%02d"


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
        name = NODE_DIR_FORMAT % self._next_index
        self._next_index += 1
        args = (os.path.join(self.root, name), role, primary_address,
                list(features) if features else None)
        handle, = spawn([(name, ReplicationNode, args)])
        handle.role = role
        self.nodes[name] = handle
        return handle

    def close(self) -> None:
        """Shut every node down cleanly (kill the unresponsive)."""
        if self._closed:
            return
        self._closed = True
        for handle in self.nodes.values():
            if handle.alive:
                self._try(handle, "shutdown")
        for handle in self.nodes.values():
            reap(handle)

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

    def _ask(self, handle: NodeHandle, kind: str, **fields: object
             ) -> Dict[str, object]:
        """One request on a fresh connection to *handle*."""
        with self.client(handle.name) as client:
            return client.request(dict(fields, kind=kind))

    def _try(self, handle: NodeHandle, kind: str
             ) -> Optional[Dict[str, object]]:
        """:meth:`_ask`, or None if the node is unreachable or refuses."""
        try:
            return self._ask(handle, kind)
        except (NodeError, WorkerDied, ProtocolError, OSError):
            return None

    def statuses(self) -> Dict[str, Dict[str, object]]:
        """Live nodes' status frames (dead nodes are skipped)."""
        replies = {handle.name: self._try(handle, "status")
                   for handle in self.nodes.values() if handle.alive}
        return {name: reply for name, reply in replies.items()
                if reply is not None}

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
        reap(handle, kill=True)
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
        self._ask(winner, "promote")
        winner.role = "primary"
        old_primary = self.nodes.get(self.primary_name)
        if old_primary is not None and old_primary.alive:
            # A still-breathing old primary must stop taking writes;
            # this reproduction demotes by shutdown (no fencing tokens).
            self._try(old_primary, "shutdown")
            reap(old_primary)
        self.primary_name = winner.name
        for handle in self.replicas:
            self._ask(handle, "rewire", host=winner.host, port=winner.port)
        return winner.name

    def _settled_offsets(self, candidates: List[NodeHandle],
                         timeout: float) -> Dict[str, int]:
        """Durable offsets once they stop moving (apply buffers drained)."""
        deadline = time.monotonic() + timeout
        previous: Optional[Dict[str, int]] = None
        while True:
            offsets = {handle.name: self._ask(handle, "status")[
                "durable_offset"] for handle in candidates}
            if offsets == previous or time.monotonic() > deadline:
                return offsets
            previous = offsets
            time.sleep(0.05)
