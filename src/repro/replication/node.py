"""One replication node: a durable schema manager behind a socket.

A node opens a :class:`~repro.manager.SchemaManager` on its own
directory and serves framed JSON requests on a loopback socket, in one
of two roles:

**primary** — accepts ``write`` requests (one evolution session per
request, committed through the ordinary durable path) and ``subscribe``
requests from replicas, to which it streams base64 slices of its
evolution log.  Only *durable* bytes are shipped (everything at or
below :attr:`~repro.storage.wal.WriteAheadLog.durable_offset`), so a
replica never sees a frame the primary could lose — and since the
single-writer log fsyncs exactly at commit records, the durable prefix
always ends on a commit boundary: replicas receive whole sessions.

**replica** — follows a primary: received frames are re-appended
through the replica's *own* :class:`~repro.storage.wal.WriteAheadLog`
(framing is deterministic, so the replica's log is a byte-identical
prefix of the primary's and byte offsets are comparable across nodes),
commit records are fsync'd before recovery's own replay step
(:func:`~repro.storage.store.replay_session`) applies their session as
one net delta through ordinary view maintenance (``repl.apply_ms`` and
the ``repl.maint_*`` counters in ``status`` say what it cost),
advancing the model's **epoch** — the committed sessions in the log —
and publishing a snapshot.  Every reply names the epoch of the snapshot
it read, so an epoch and a digest always describe one state.  Reads
carry an optional ``min_epoch`` token and block until the published
epoch reaches it: read-your-writes for clients that carry the epoch a
write acknowledged.

**Failover** — ``promote`` turns a replica into a primary: it stops
following, truncates its log to its durable offset (dropping the
partial session a dead primary may have half-shipped), and starts
accepting writes and subscriptions; session ids resume past everything
it ever saw.  ``rewire`` points a replica at the new primary: same
truncation, then a fresh subscription from its durable offset — valid
because the election picked the longest durable prefix, of which every
other log is itself a prefix.

Replicated directories must never be checkpointed: a checkpoint resets
the log, and byte offsets — the election currency — are only
comparable while every node's log starts at byte 0 of the same
history.  :class:`ReplicationNode` refuses a directory that carries a
checkpoint snapshot.
"""

from __future__ import annotations

import asyncio
import base64
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.manager import SchemaManager
from repro.obs.metrics import AgeGauge, MetricsRegistry
from repro.service.stress import snapshot_digest
from repro.storage.store import SNAPSHOT_NAME, replay_session
from repro.storage.wal import WalRecord, decode_record, group_operations
from repro.wire import (
    ProtocolError,
    WorkerDied,
    recv_frame,
    send_frame,
    send_message,
)

#: Cap on one shipped chunk; a slow replica catches up in bounded bites.
MAX_CHUNK_BYTES = 4 * 1024 * 1024
#: How often an idle primary heartbeats its subscribers (seconds).
HEARTBEAT_SECONDS = 0.25
#: How long a disconnected follower waits before re-dialling (seconds).
RETRY_SECONDS = 0.2


class ReplicationNode:
    """The in-process state of one node; :func:`node_main` hosts it."""

    def __init__(self, directory: str, role: str,
                 primary: Optional[Tuple[str, int]] = None,
                 features: Optional[List[str]] = None,
                 read_threads: int = 2) -> None:
        if role not in ("primary", "replica"):
            raise ValueError(f"unknown role {role!r}")
        if role == "replica" and primary is None:
            raise ValueError("a replica needs a primary address")
        if os.path.exists(os.path.join(directory, SNAPSHOT_NAME)):
            raise ValueError(
                f"{directory} carries a checkpoint snapshot; replicated "
                f"logs must keep their full history (never checkpoint a "
                f"replicated directory)")
        self.directory = directory
        self.role = role
        self.primary = primary
        self.manager = SchemaManager.open(directory, features=features)
        self.store = self.manager.store
        self.wal = self.store.wal
        self.model = self.manager.model
        self.model.enable_snapshots()
        self._max_session = self.store._next_session - 1
        # Drop any uncommitted tail the last incarnation left: the
        # stream protocol re-ships those bytes, and the apply loop must
        # see every session from its bes record.
        self.wal.truncate_to(self.store.recovery.last_commit_offset)
        self.metrics = MetricsRegistry()
        self.metrics.gauge("repl.epoch").set(self.model.epoch)
        self.staleness = AgeGauge("repl.staleness_seconds")
        self.lag_seconds = 0.0
        self.port: Optional[int] = None
        self._pending = b""
        self._uncommitted: List[WalRecord] = []
        self._pool = ThreadPoolExecutor(max_workers=max(1, read_threads),
                                        thread_name_prefix="repl-read")
        # Unbound until first awaited, so they join run()'s loop.
        self._epoch_cond = asyncio.Condition()
        self._commit_cond = asyncio.Condition()
        self._stop = asyncio.Event()
        self._write_lock = asyncio.Lock()
        self._follower: Optional[asyncio.Task] = None

    @property
    def epoch(self) -> int:
        """The published epoch: the one reads are served at."""
        return self.model.snapshot().epoch

    # -- serving ---------------------------------------------------------------

    async def run(self, ready_conn=None) -> None:
        """Listen, follow (replicas), and serve until shut down."""
        loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._serve_connection, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        if self.role == "replica":
            self._follower = loop.create_task(self._follow())
        if ready_conn is not None:
            send_message(ready_conn, {"kind": "ready", "port": self.port,
                                      "epoch": self.epoch})
            ready_conn.close()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._stop_follower()
            self._pool.shutdown(wait=False)
            self.manager.close()

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                message = await recv_frame(reader)
                kind = message.get("kind")
                if kind == "subscribe":
                    await self._handle_subscribe(message, writer)
                    return
                reply = await self._dispatch(message)
                await send_frame(writer, reply)
                if kind == "shutdown" and reply.get("ok"):
                    self._stop.set()
                    return
        except (WorkerDied, ProtocolError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def _dispatch(self, message: Dict[str, object]
                        ) -> Dict[str, object]:
        kind = message.get("kind")
        handler = getattr(self, f"_handle_{kind}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown request kind {kind!r}"}
        try:
            return await handler(message)
        except Exception as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    # -- request handlers ------------------------------------------------------

    async def _handle_write(self, message) -> Dict[str, object]:
        if self.role != "primary":
            return {"ok": False, "error": "replicas are read-only",
                    "role": self.role}
        source = message.get("source")
        loop = asyncio.get_running_loop()
        async with self._write_lock:
            await loop.run_in_executor(self._pool, self.manager.define,
                                       source)
            # The snapshot this commit published: no other writer runs
            # while the lock is held.
            snapshot = self.model.snapshot()
            self.metrics.counter("repl.writes").inc()
            self.metrics.gauge("repl.epoch").set(snapshot.epoch)
        async with self._commit_cond:
            self._commit_cond.notify_all()
        async with self._epoch_cond:
            self._epoch_cond.notify_all()
        reply = {"ok": True, "epoch": snapshot.epoch}
        if message.get("digest"):
            reply["digest"] = await loop.run_in_executor(
                self._pool, snapshot_digest, snapshot)
        return reply

    async def _handle_read(self, message) -> Dict[str, object]:
        min_epoch = message.get("min_epoch")
        if min_epoch is not None and self.epoch < min_epoch:
            try:
                await asyncio.wait_for(
                    self._wait_for_epoch(min_epoch),
                    timeout=message.get("timeout", 10.0))
            except asyncio.TimeoutError:
                return {"ok": False, "error": "stale", "epoch": self.epoch,
                        "min_epoch": min_epoch}
        snapshot = self.model.snapshot()
        op = message.get("op", "digest")
        # Optional per-read service-time floor (capped), held while the
        # read occupies one of the node's bounded read slots.  Models a
        # storage-fetch wait so capacity benchmarks measure slots *
        # nodes rather than host cores; zero for normal traffic.
        io_ms = min(float(message.get("io_ms", 0) or 0), 250.0)
        reply = {"ok": True, "epoch": snapshot.epoch, "role": self.role}
        if op == "digest":
            loop = asyncio.get_running_loop()
            reply["digest"] = await loop.run_in_executor(
                self._pool, self._read_task, snapshot, io_ms)
        elif op == "count":
            reply["count"] = sum(1 for _ in snapshot.db.edb.all_facts())
        elif op != "epoch":
            return {"ok": False, "error": f"unknown read op {op!r}"}
        self.metrics.counter("repl.reads").inc()
        return reply

    @staticmethod
    def _read_task(snapshot, io_ms: float) -> str:
        if io_ms > 0:
            time.sleep(io_ms / 1000.0)
        return snapshot_digest(snapshot)

    async def _wait_for_epoch(self, min_epoch: int) -> None:
        async with self._epoch_cond:
            await self._epoch_cond.wait_for(
                lambda: self.epoch >= min_epoch)

    async def _handle_status(self, message) -> Dict[str, object]:
        return {
            "ok": True,
            "role": self.role,
            "epoch": self.epoch,
            "durable_offset": self.wal.durable_offset,
            "written_offset": self.wal.written_offset,
            "next_session": self.store._next_session,
            "lag_seconds": self.lag_seconds,
            "staleness_seconds": self.staleness.age_seconds(),
            "metrics": self.metrics.snapshot(),
        }

    async def _handle_promote(self, message) -> Dict[str, object]:
        """Become the primary (the caller elected this node)."""
        if self.role == "primary":
            return {"ok": True, "epoch": self.epoch,
                    "durable_offset": self.wal.durable_offset,
                    "already_primary": True}
        await self._unfollow()
        self.store._next_session = self._max_session + 1
        self.role = "primary"
        self.primary = None
        self.metrics.counter("repl.promotions").inc()
        return {"ok": True, "epoch": self.epoch,
                "durable_offset": self.wal.durable_offset}

    async def _handle_rewire(self, message) -> Dict[str, object]:
        """Follow a different primary (after a promotion elsewhere)."""
        if self.role != "replica":
            return {"ok": False, "error": "only replicas rewire"}
        await self._unfollow()
        self.primary = (message["host"], message["port"])
        loop = asyncio.get_running_loop()
        self._follower = loop.create_task(self._follow())
        return {"ok": True, "epoch": self.epoch,
                "durable_offset": self.wal.durable_offset}

    async def _handle_shutdown(self, message) -> Dict[str, object]:
        return {"ok": True}

    # -- primary: streaming durable log bytes ----------------------------------

    async def _handle_subscribe(self, message, writer) -> None:
        offset = int(message.get("offset", 0))
        if self.role != "primary":
            await send_frame(writer, {"ok": False,
                                      "error": "not the primary",
                                      "role": self.role})
            return
        durable = self.wal.durable_offset
        if offset > durable:
            # A subscriber ahead of us would mean diverged logs — the
            # invariants forbid it (rewire truncates first); refuse.
            await send_frame(writer, {"ok": False, "error":
                                      f"subscriber offset {offset} is past "
                                      f"the durable offset {durable}"})
            return
        await send_frame(writer, {"ok": True, "offset": offset,
                                  "epoch": self.epoch})
        self.metrics.counter("repl.subscribers").inc()
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
        self.metrics.gauge("repl.epoch").set(self.model.epoch)


def node_main(ready_conn, directory: str, role: str,
              primary: Optional[Tuple[str, int]] = None,
              features: Optional[List[str]] = None) -> None:
    """Child-process entry point: build the node and serve forever."""
    try:
        node = ReplicationNode(directory, role, primary=primary,
                               features=features)
    except Exception as exc:
        send_message(ready_conn, {"kind": "error",
                                  "error": f"{type(exc).__name__}: {exc}"})
        ready_conn.close()
        return
    asyncio.run(node.run(ready_conn))
