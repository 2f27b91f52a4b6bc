"""Clients of a replication group, including read-your-writes.

:class:`ReplicationClient` is one blocking socket connection to one
node — the low-level request surface (``write`` / ``read`` /
``status`` / ``promote`` / ``rewire`` / ``shutdown``).

:class:`ReplicatedSchema` is the consistency-aware façade: writes go
to the primary and the acknowledged epoch becomes the client's
**token**; reads fan out across the replicas round-robin and carry the
token as ``min_epoch``, so a replica blocks (briefly) rather than
serve a state older than the client's own last write — read-your-
writes over asynchronously shipped logs.  After a failover the token
is clamped to the new primary's epoch: commits the dead primary never
shipped are gone, and waiting for them would block forever.
"""

from __future__ import annotations

import socket
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.wire import recv_frame_sync, send_frame_sync

__all__ = ["ReplicatedSchema", "ReplicationClient", "ReplicationError"]


class ReplicationError(ReproError):
    """A node answered a request with ``ok: false``."""

    def __init__(self, reply: Dict[str, object]) -> None:
        super().__init__(str(reply.get("error", reply)))
        self.reply = reply


class ReplicationClient:
    """One framed-JSON connection to one replication node."""

    def __init__(self, address: Tuple[str, int],
                 timeout: float = 30.0) -> None:
        self.address = address
        self.timeout = timeout
        self._sock = socket.create_connection(address, timeout=timeout)

    def request(self, message: Dict[str, object],
                timeout: Optional[float] = None) -> Dict[str, object]:
        send_frame_sync(self._sock, message)
        reply = recv_frame_sync(self._sock,
                                timeout=timeout or self.timeout)
        if not reply.get("ok"):
            raise ReplicationError(reply)
        return reply

    def write(self, source: str, digest: bool = False) -> Dict[str, object]:
        """Define schemas on the primary; the reply carries the epoch."""
        return self.request({"kind": "write", "source": source,
                             "digest": digest})

    def read(self, op: str = "digest", min_epoch: Optional[int] = None,
             timeout: Optional[float] = None,
             io_ms: float = 0) -> Dict[str, object]:
        message = {"kind": "read", "op": op}
        if io_ms:
            message["io_ms"] = io_ms
        if min_epoch is not None:
            message["min_epoch"] = min_epoch
            message["timeout"] = timeout if timeout is not None else 10.0
        # Leave headroom over the server-side wait so a "stale" error
        # comes back as a reply, not as a client socket timeout.
        wire_timeout = (message.get("timeout", 0) + self.timeout
                        if min_epoch is not None else timeout)
        return self.request(message, timeout=wire_timeout)

    def status(self) -> Dict[str, object]:
        return self.request({"kind": "status"})

    def promote(self) -> Dict[str, object]:
        return self.request({"kind": "promote"})

    def rewire(self, host: str, port: int) -> Dict[str, object]:
        return self.request({"kind": "rewire", "host": host, "port": port})

    def shutdown(self) -> Dict[str, object]:
        return self.request({"kind": "shutdown"})

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ReplicationClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
