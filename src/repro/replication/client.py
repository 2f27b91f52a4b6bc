"""Clients of a replication group, including read-your-writes.

:class:`ReplicationClient` is a :class:`~repro.node.NodeClient` with
``write`` and a token-carrying ``read``.  :class:`ReplicatedSchema` is
the consistency-aware façade: writes go to the primary and the
acknowledged epoch becomes the client's **token**; reads fan out
across the replicas round-robin and carry the token as ``min_epoch``,
so a replica blocks (briefly) rather than serve a state older than the
client's own last write.  After a failover the token is clamped to the
new primary's epoch: commits the dead primary never shipped are gone.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.node import NodeClient, NodeError

__all__ = ["ReplicatedSchema", "ReplicationClient", "ReplicationError"]


class ReplicationError(NodeError):
    """A node answered a request with ``ok: false``."""


class ReplicationClient(NodeClient):
    """One framed-JSON connection to one replication node."""

    error = ReplicationError

    def write(self, source: str, digest: bool = False) -> Dict[str, object]:
        """Define schemas on the primary; the reply carries the epoch."""
        return self.request({"kind": "write", "source": source,
                             "digest": digest})

    def read(self, op: str = "digest", min_epoch: Optional[int] = None,
             timeout: Optional[float] = None,
             io_ms: float = 0) -> Dict[str, object]:
        message = {"kind": "read", "op": op, "io_ms": io_ms}
        if min_epoch is None:
            return self.request(message, timeout=timeout)
        wait = 10.0 if timeout is None else timeout
        message.update(min_epoch=min_epoch, timeout=wait)
        # Headroom over the node's wait: "stale" comes back as a reply,
        # not as a client socket timeout.
        return self.request(message, timeout=wait + self.timeout)


class ReplicatedSchema:
    """Read-your-writes over a cluster: primary writes, replica reads."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        #: The epoch of this client's last acknowledged write; reads
        #: never observe anything older.
        self.token = 0
        self._primary: Optional[ReplicationClient] = None
        self._readers: List[ReplicationClient] = []
        self._turn = 0
        self._connect()

    def _connect(self) -> None:
        self.close()
        self._primary = self.cluster.client()
        replicas = self.cluster.replicas
        self._readers = [ReplicationClient(handle.address)
                         for handle in replicas]
        if not self._readers:
            # A lone primary serves its own reads.
            self._readers = [self.cluster.client()]
        self._turn = 0

    def define(self, source: str, digest: bool = False
               ) -> Dict[str, object]:
        reply = self._primary.write(source, digest=digest)
        self.token = reply["epoch"]
        return reply

    def read(self, op: str = "digest",
             timeout: float = 10.0) -> Dict[str, object]:
        client = self._readers[self._turn % len(self._readers)]
        self._turn += 1
        return client.read(op=op, min_epoch=self.token, timeout=timeout)

    def handle_failover(self) -> None:
        """Reconnect after a promotion and clamp the token.

        Commits acknowledged by the dead primary but never shipped are
        lost; a token above the new primary's epoch would wait for a
        state that no longer exists.
        """
        self._connect()
        epoch = self._primary.read(op="epoch")["epoch"]
        self.token = min(self.token, epoch)

    def close(self) -> None:
        if self._primary is not None:
            self._primary.close()
            self._primary = None
        for client in self._readers:
            client.close()
        self._readers = []

    def __enter__(self) -> "ReplicatedSchema":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
