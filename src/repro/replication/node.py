"""One replication node: a :class:`~repro.node.Node` in one of two roles.

The node around it (:mod:`repro.node`) opens the durable manager and
serves the socket and the shared kinds; this module adds log shipping,
following and failover (``DESIGN.md`` §15):

**primary** — commits ``write`` requests and streams base64 slices of
its evolution log to each ``subscribe``.  Only *durable* bytes ship (up
to :attr:`~repro.storage.wal.WriteAheadLog.durable_offset`), and the
single-writer log fsyncs exactly at commit records, so replicas receive
whole sessions and never a frame the primary could lose.

**replica** — re-appends received frames through its *own* WAL
(framing is deterministic, so its log is a byte-identical prefix of
the primary's and offsets compare across nodes), fsyncs each commit
record, then applies that session as one net delta through recovery's
own :func:`~repro.storage.store.replay_session` (``repl.apply_ms`` and
``repl.maint_*`` in ``status`` say what it cost), advancing the epoch
and publishing a snapshot.  A replica refuses writes.

**failover** — ``promote`` stops following, truncates the log to its
durable offset (dropping a half-shipped session) and starts accepting
writes and subscriptions; ``rewire`` does the same truncation and then
follows the new primary — valid because the election picked the
longest durable prefix, of which every other log is a prefix.

Byte offsets are the election currency, so a replicated log must keep
its full history: a node refuses a directory carrying a checkpoint
snapshot, and refuses the ``checkpoint`` kind.
"""

from __future__ import annotations

import asyncio
import base64
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.node import Node, NodeError
from repro.obs.metrics import AgeGauge
from repro.storage.store import SNAPSHOT_NAME, replay_session
from repro.storage.wal import WalRecord, decode_record, group_operations
from repro.wire import ProtocolError, WorkerDied, recv_frame, send_frame

#: Cap on one shipped chunk; a slow replica catches up in bounded bites.
MAX_CHUNK_BYTES = 4 * 1024 * 1024
#: How often an idle primary heartbeats its subscribers (seconds).
HEARTBEAT_SECONDS = 0.25
#: How long a disconnected follower waits before re-dialling (seconds).
RETRY_SECONDS = 0.2


class ReplicationNode(Node):
    """A :class:`~repro.node.Node` that ships its log or follows one."""

    def __init__(self, directory: str, role: str,
                 primary: Optional[Tuple[str, int]] = None,
                 features: Optional[Sequence[str]] = None) -> None:
        if role not in ("primary", "replica"):
            raise ValueError(f"unknown role {role!r}")
        if role == "replica" and primary is None:
            raise ValueError("a replica needs a primary address")
        if os.path.exists(os.path.join(directory, SNAPSHOT_NAME)):
            raise ValueError(
                f"{directory} carries a checkpoint snapshot; replicated "
                f"logs must keep their full history (never checkpoint a "
                f"replicated directory)")
        super().__init__(directory, features=features)
        self.role = role
        self.primary = primary
        self._max_session = self.store._next_session - 1
        # Drop any uncommitted tail the last incarnation left: the
        # stream protocol re-ships those bytes, and the apply loop must
        # see every session from its bes record.
        self.wal.truncate_to(self.store.recovery.last_commit_offset)
        self.staleness = AgeGauge("repl.staleness_seconds")
        self.lag_seconds = 0.0
        self._pending = b""
        self._uncommitted: List[WalRecord] = []
        self._follower: Optional[asyncio.Task] = None

    async def run(self, ready=None) -> None:
        if self.role == "replica":
            self._follower = asyncio.get_running_loop().create_task(
                self._follow())
        await super().run(ready)

    async def _quiesce(self) -> None:
        await self._stop_follower()

    # -- request handlers ------------------------------------------------------

    def _handle_write(self, message) -> Dict[str, object]:
        if self.role != "primary":
            raise NodeError("replicas are read-only")
        return super()._handle_write(message)

    def _handle_checkpoint(self, message) -> Dict[str, object]:
        raise NodeError("never checkpoint a replicated directory: byte "
                        "offsets are only comparable over a full log")

    async def _handle_status(self, message) -> Dict[str, object]:
        status = await super()._handle_status(message)
        status.update(role=self.role, lag_seconds=self.lag_seconds,
                      staleness_seconds=self.staleness.age_seconds())
        return status

    async def _handle_promote(self, message) -> Dict[str, object]:
        """Become the primary (the caller elected this node); a primary
        is left as it is."""
        if self.role == "replica":
            await self._unfollow()
            self.store._next_session = self._max_session + 1
            self.role, self.primary = "primary", None
            self.metrics.counter("repl.promotions").inc()
        return {"durable_offset": self.wal.durable_offset}

    async def _handle_rewire(self, message) -> Dict[str, object]:
        """Follow a different primary (after a promotion elsewhere)."""
        if self.role != "replica":
            raise NodeError("only replicas rewire")
        await self._unfollow()
        self.primary = (message["host"], message["port"])
        self._follower = asyncio.get_running_loop().create_task(
            self._follow())
        return {"durable_offset": self.wal.durable_offset}

    # -- primary: streaming durable log bytes ----------------------------------

    async def _handle_subscribe(self, message) -> Dict[str, object]:
        """Acknowledge a subscription from *offset*; the connection then
        carries log chunks (:meth:`_ship`)."""
        offset = message.get("offset", 0)
        if type(offset) is not int or offset < 0:
            raise ProtocolError(f"subscribe offset must be a non-negative "
                                f"integer, got {offset!r}")
        if self.role != "primary":
            raise NodeError(f"not the primary (this node is a {self.role})")
        durable = self.wal.durable_offset
        if offset > durable:
            # A subscriber ahead of us would mean diverged logs — the
            # invariants forbid it (rewire truncates first); refuse.
            raise NodeError(f"subscriber offset {offset} is past the "
                            f"durable offset {durable}")
        self.metrics.counter("repl.subscribers").inc()
        return {"offset": offset}

    async def _ship(self, ack: Dict[str, object], writer) -> None:
        offset = ack["offset"]
        while not self._stop.is_set() and self.role == "primary":
            durable = self.wal.durable_offset
            data = self._read_log_slice(offset, durable) \
                if offset < durable else b""
            # An empty chunk is a heartbeat.
            await send_frame(writer, {
                "kind": "chunk", "offset": offset,
                "data": base64.b64encode(data).decode("ascii"),
                "mono_ts": time.monotonic(), "epoch": self.epoch})
            offset += len(data)
            if data:
                continue
            async with self._commit_cond:
                try:
                    await asyncio.wait_for(self._commit_cond.wait(),
                                           timeout=HEARTBEAT_SECONDS)
                except asyncio.TimeoutError:
                    pass

    def _read_log_slice(self, start: int, end: int) -> bytes:
        with open(self.wal.path, "rb") as handle:
            handle.seek(start)
            return handle.read(min(end - start, MAX_CHUNK_BYTES))

    # -- replica: following, appending, applying -------------------------------

    async def _follow(self) -> None:
        """Subscribe to the primary and apply its stream, forever."""
        while not self._stop.is_set():
            host, port = self.primary
            writer = None
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await send_frame(writer, {
                    "kind": "subscribe",
                    "offset": self.wal.written_offset + len(self._pending)})
                ack = await recv_frame(reader)
                if not ack.get("ok"):
                    raise WorkerDied(f"subscribe refused: {ack}")
                while True:
                    message = await recv_frame(reader)
                    await self._on_chunk(message)
            except asyncio.CancelledError:
                raise
            except (WorkerDied, ProtocolError, ConnectionRefusedError,
                    OSError):
                # Primary unreachable (dead, or not yet listening):
                # keep retrying until a rewire or promote intervenes.
                await asyncio.sleep(RETRY_SECONDS)
            finally:
                if writer is not None:
                    writer.close()

    async def _unfollow(self) -> None:
        """Stop following; cut the log back to its durable prefix."""
        await self._stop_follower()
        self._pending = b""
        self._uncommitted = []
        self.wal.truncate_to(self.wal.durable_offset)

    async def _stop_follower(self) -> None:
        task, self._follower = self._follower, None
        if task is not None:
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    async def _on_chunk(self, message) -> None:
        if message.get("kind") != "chunk":
            raise ProtocolError(f"expected a chunk, got {message!r}")
        mono_ts = message.get("mono_ts")
        if isinstance(mono_ts, (int, float)):
            self.lag_seconds = max(0.0, time.monotonic() - mono_ts)
            self.staleness.mark(mono_ts)
            self.metrics.gauge("repl.lag_seconds").set(self.lag_seconds)
        encoded = message.get("data", "")
        if not encoded:
            return
        data = base64.b64decode(encoded)
        expected = self.wal.written_offset + len(self._pending)
        if message.get("offset") != expected:
            raise ProtocolError(
                f"chunk at offset {message.get('offset')} but this "
                f"replica is at {expected}: diverged stream")
        self._pending += data
        applied = self._drain_pending()
        self.metrics.counter("repl.chunks_applied").inc()
        self.metrics.counter("repl.bytes_applied").inc(len(data))
        if applied:
            async with self._epoch_cond:
                self._epoch_cond.notify_all()

    def _drain_pending(self) -> int:
        """Append every complete frame in the buffer, applying each
        session when its commit lands; returns the sessions applied.
        Frames decode at a cursor; the buffer is trimmed once per call."""
        applied = cursor = 0
        try:
            while True:
                record = decode_record(self._pending, cursor)
                if record is None:
                    return applied
                self.wal.append(record.payload, sync=(record.kind == "commit"))
                cursor = record.end_offset
                self._max_session = max(self._max_session, record.session or 0)
                self._uncommitted.append(record)
                if record.kind == "commit":
                    self._apply_commit()
                    applied += 1
        finally:
            # Also on a failed append: a resubscribe asks for exactly
            # the bytes past the log plus this buffer.
            self._pending = self._pending[cursor:]

    def _apply_commit(self) -> None:
        """Apply the session whose commit frame just became durable (the
        append fsync'd it), so the applied state is always recoverable
        from the local log.  Sessions are sequential on the primary: the
        records before a commit are its session and rolled-back ones.
        The primary validated the session, so only its deductive half
        runs here: one net delta through ordinary view maintenance."""
        started = time.perf_counter()
        stats = self.model.db.begin_stats()
        for _session, ops, commit in group_operations(self._uncommitted):
            replay_session(self.model, ops, commit)
        self._uncommitted = []
        self.store._next_session = self._max_session + 1
        self.metrics.histogram("repl.apply_ms").observe(
            (time.perf_counter() - started) * 1000.0)
        self.metrics.counter("repl.sessions_applied").inc()
        for field in ("maint_deleted", "maint_rederived"):
            self.metrics.counter(f"repl.{field}").inc(getattr(stats, field))

