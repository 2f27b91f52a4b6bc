"""One node: a durable schema manager behind one socket.

A farm shard (:mod:`repro.farm`) and a replication node
(:mod:`repro.replication`) are both one :class:`~repro.manager.SchemaManager`
on its own directory, publishing a snapshot per commit into one metrics
registry and serving framed JSON (:mod:`repro.wire`) on a loopback
socket.  They differ only in their handlers — a shard validates session
plans, a replica applies already-validated deltas — so the rest lives
here once: the dispatch of ``{"kind": k}`` to ``_handle_<k>`` (see
:meth:`Node._run` for where a plain handler runs; a kind in
:attr:`Node.WRITES` runs one at a time under the write lock), the
error envelope, the shared kinds, the :func:`spawn` /
:func:`reap` supervisor with its ready handshake, and
:class:`NodeClient`.  ``DESIGN.md`` §14 describes the protocol.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analyzer.namespaces import (
    model_schema_name,
    resolve_schema_path,
    resolve_visible_type,
    visible_components,
)
from repro.datalog.facts import edb_digest
from repro.errors import InconsistentSchemaError, ReproError
from repro.gom.ids import Id
from repro.gom.persistence import decode_value, encode_value
from repro.manager import SchemaManager
from repro.obs import Observability
from repro.wire import (
    ProtocolError,
    WorkerDied,
    recv_frame,
    recv_frame_sync,
    recv_message,
    send_frame,
    send_frame_sync,
    send_message,
)

__all__ = ["Node", "NodeClient", "NodeError", "NodeHandle", "READ_OPS",
           "READ_THREADS", "reap", "resolve_schema", "spawn"]

HOST = "127.0.0.1"
#: Threads per node: writes take one at a time, reads share the rest.
READ_THREADS = 2
#: How long :func:`spawn` waits for a node to open (recovery included).
READY_TIMEOUT = 120.0


class NodeError(ReproError):
    """A node refused a request, or could not start."""


class _Request(dict):
    """A decoded request; a missing field is a protocol error."""

    def __missing__(self, key: str):
        raise ProtocolError(f"request lacks field {key!r}")


# -- the read ops (all against a published snapshot) --------------------------


def resolve_schema(view, ref: object) -> Optional[Id]:
    """A schema by encoded id, name or absolute path (model or snapshot)."""
    if isinstance(ref, dict):
        sid = decode_value(ref)
        return sid if isinstance(sid, Id) else None
    if isinstance(ref, str) and ref.startswith("/"):
        return resolve_schema_path(view, ref)
    if isinstance(ref, str):
        return view.schema_id(ref)
    return None


def _read_attributes(snapshot, params):
    """A type's attributes by name: the schema's own type first, then
    the visible ones (imports and inherited subschema components)."""
    sid = resolve_schema(snapshot, params["schema"])
    tid = None if sid is None else snapshot.type_id(params["type"], sid)
    if sid is not None and tid is None:
        tid = resolve_visible_type(snapshot, sid, params["type"])
    return None if tid is None else sorted(
        [name, snapshot.type_name(domain)]
        for name, domain in snapshot.attributes(tid))


def _read_schema_id(snapshot, params):
    sid = resolve_schema(snapshot, params["schema"])
    return None if sid is None else encode_value(sid)


def _read_visible(snapshot, params):
    return [[visible, model_schema_name(snapshot, origin), original]
            for visible, origin, original in visible_components(
                snapshot, resolve_schema(snapshot, params["schema"]),
                params.get("component", "type"), params.get("name"))]


def _read_count(snapshot, params):
    """Facts of one predicate (``pred``), or of the whole EDB."""
    if params.get("pred") is not None:
        return snapshot.db.count(params["pred"])
    return sum(1 for _ in snapshot.db.edb.all_facts())


#: ``read`` ops: ``op -> (snapshot, params) -> JSON result``.
READ_OPS: Dict[str, Callable] = {
    "digest": lambda snapshot, params: edb_digest(snapshot.db),
    "epoch": lambda snapshot, params: snapshot.epoch,
    "count": _read_count,
    "schema_id": _read_schema_id,
    "visible": _read_visible,
    "attributes": _read_attributes,
}


def _read(op, snapshot, params, io_ms: float):
    if io_ms > 0:
        time.sleep(io_ms / 1000.0)
    return READ_OPS[op](snapshot, params)


# -- the node -----------------------------------------------------------------


class Node:
    """One durable schema manager and the socket server around it."""

    #: Kinds that touch the live model: one at a time, under the lock.
    WRITES = frozenset({"write", "checkpoint"})

    def __init__(self, directory: str,
                 features: Optional[Sequence[str]] = None) -> None:
        self.directory = directory
        self.manager = SchemaManager.open(
            directory, features=features,
            obs=Observability.create(metrics=True))
        self.model = self.manager.model
        self.model.enable_snapshots()
        self.store = self.manager.store
        self.wal = self.store.wal
        self.metrics = self.manager.obs.metrics
        self._pool = ThreadPoolExecutor(max_workers=READ_THREADS,
                                        thread_name_prefix="node")
        # Unbound until first awaited, so they join run()'s loop.
        self._epoch_cond = asyncio.Condition()
        self._commit_cond = asyncio.Condition()
        self._stop = asyncio.Event()
        self._write_lock = asyncio.Lock()
        self._connections = 0

    @property
    def epoch(self) -> int:
        """The published epoch: the one reads are served at."""
        return self.model.snapshot().epoch

    # -- serving ---------------------------------------------------------------

    async def run(self, ready=None) -> None:
        """Listen and serve until a ``shutdown`` request; *ready* (a
        pipe end) gets the handshake once the socket is listening."""
        server = await asyncio.start_server(self._serve, HOST, 0)
        if ready is not None:
            send_message(ready, {"ok": True,
                                 "port": server.sockets[0].getsockname()[1],
                                 "pid": os.getpid(), "epoch": self.epoch})
            ready.close()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._quiesce()
            self._pool.shutdown(wait=True)
            self.manager.close()

    async def _quiesce(self) -> None:
        """Stop background tasks before the manager closes."""

    async def _serve(self, reader, writer) -> None:
        self._connections += 1
        try:
            while True:
                message = await recv_frame(reader)
                reply = await self._dispatch(message)
                await send_frame(writer, reply)
                kind = message.get("kind")
                if reply["ok"] and kind == "shutdown":
                    self._stop.set()
                    return
                if reply["ok"] and kind == "subscribe":
                    await self._ship(reply, writer)
                    return
        except (WorkerDied, ProtocolError, asyncio.CancelledError):
            pass
        finally:
            self._connections -= 1
            writer.close()

    async def _ship(self, ack: Dict[str, object], writer) -> None:
        """Own a connection whose ``subscribe`` was acknowledged."""
        raise NotImplementedError

    async def _dispatch(self, message: Dict[str, object]
                        ) -> Dict[str, object]:
        message = _Request(message)
        kind = message.get("kind")
        handler = getattr(self, f"_handle_{kind}", None) \
            if isinstance(kind, str) else None
        try:
            if handler is None:
                raise ProtocolError(f"unknown request kind {kind!r}")
            self.metrics.counter(f"node.requests[{kind}]").inc()
            if asyncio.iscoroutinefunction(handler):
                reply = await handler(message)
            elif kind in self.WRITES:
                reply = await self._write(handler, message)
            else:
                reply = await self._run(handler, message)
        except Exception as exc:
            return self._error(exc)
        reply["ok"] = True
        reply.setdefault("epoch", self.epoch)
        return reply

    def _error(self, exc: Exception) -> Dict[str, object]:
        """The one error envelope (an unexpected error carries its trace)."""
        reply = {"ok": False, "error": str(exc) if isinstance(
            exc, ReproError) else traceback.format_exc(limit=5),
                 "error_type": type(exc).__name__, "epoch": self.epoch}
        if isinstance(exc, InconsistentSchemaError):
            reply["violations"] = [v.constraint.name
                                   for v in exc.violations]
        return reply

    async def _run(self, function, *args):
        """Run a plain handler: inline while one connection is open (its
        requests are serial anyway, and a pool thread costs a handoff and
        its own malloc arena), else in the pool so none stalls another."""
        if self._connections == 1:
            return function(*args)
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, function, *args)

    async def _write(self, handler, message) -> Dict[str, object]:
        async with self._write_lock:
            reply = await self._run(handler, message)
            # No other writer runs while the lock is held: this is the
            # epoch the handler's own commit published.
            reply.setdefault("epoch", self.epoch)
        async with self._commit_cond:
            self._commit_cond.notify_all()
        async with self._epoch_cond:
            self._epoch_cond.notify_all()
        return reply

    # -- the shared kinds ------------------------------------------------------

    async def _handle_ping(self, message) -> Dict[str, object]:
        return {"pid": os.getpid()}

    async def _handle_status(self, message) -> Dict[str, object]:
        report = self.manager.recovery
        return {
            "epoch": self.epoch,
            "durable_offset": self.wal.durable_offset,
            "written_offset": self.wal.written_offset,
            "next_session": self.store._next_session,
            "metrics": self.metrics.snapshot(),
            "recovery": None if report is None else {
                key: value for key, value in vars(report).items()
                if key not in ("directory", "stats")},
        }

    async def _handle_shutdown(self, message) -> Dict[str, object]:
        return {}

    async def _handle_read(self, message) -> Dict[str, object]:
        min_epoch = message.get("min_epoch")
        if min_epoch is not None and self.epoch < min_epoch:
            async with self._epoch_cond:
                try:
                    await asyncio.wait_for(self._epoch_cond.wait_for(
                        lambda: self.epoch >= min_epoch),
                        timeout=message.get("timeout", 10.0))
                except asyncio.TimeoutError:
                    raise NodeError(f"stale: epoch {self.epoch} is below "
                                    f"min_epoch {min_epoch}") from None
        op = message.get("op", "digest")
        if op not in READ_OPS:
            raise ProtocolError(f"unknown read op {op!r}")
        snapshot = self.model.snapshot()
        # Optional per-read service-time floor (capped), held while the
        # read occupies a pool thread: capacity benchmarks then measure
        # threads * nodes rather than host cores.  Zero for normal reads.
        io_ms = min(float(message.get("io_ms") or 0), 250.0)
        result = await self._run(_read, op, snapshot, _Request(
            message.get("params") or {}), io_ms)
        return {op: result, "epoch": snapshot.epoch}

    async def _handle_digest(self, message) -> Dict[str, object]:
        return await self._handle_read({"op": "digest"})

    def _handle_check(self, message) -> Dict[str, object]:
        report = self.model.snapshot().check()
        return {"consistent": report.consistent,
                "violations": [v.constraint.name for v in report.violations]}

    def _handle_write(self, message) -> Dict[str, object]:
        """Define schemas from source: one committed session."""
        result = self.manager.define(
            message["source"], check_mode=message.get("check_mode", "delta"))
        snapshot = self.model.snapshot()
        reply = {"epoch": snapshot.epoch,
                 "schemas": {name: encode_value(sid)
                             for name, sid in result.schema_ids.items()}}
        if message.get("digest"):
            reply["digest"] = edb_digest(snapshot.db)
        return reply

    def _handle_checkpoint(self, message) -> Dict[str, object]:
        self.manager.checkpoint()
        return {}


# -- the supervisor -----------------------------------------------------------


@dataclass
class NodeHandle:
    """One node process and how to reach it."""

    name: str
    process: object
    conn: object  # the handshake pipe, closed once the node is ready
    role: str = "primary"
    host: str = HOST
    port: int = 0
    pid: int = 0
    epoch: int = 0
    alive: bool = True

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)


def _main(conn, node_class, args) -> None:
    """A node process: open the node and serve until shut down."""
    try:
        node = node_class(*args)
    except Exception as exc:
        send_message(conn, {"ok": False,
                            "error": f"{type(exc).__name__}: {exc}"})
        conn.close()
        return
    asyncio.run(node.run(conn))


def spawn(specs: Sequence[Tuple[str, type, tuple]]) -> List[NodeHandle]:
    """Start one process per ``(name, node class, args)``, then wait for
    every ready handshake (the nodes open in parallel).

    If any node fails to open, every process started here is killed and
    reaped, and :class:`NodeError` carries the node's exception text.
    """
    context = multiprocessing.get_context()
    handles: List[NodeHandle] = []
    try:
        for name, node_class, args in specs:
            parent, child = context.Pipe()
            process = context.Process(target=_main,
                                      args=(child, node_class, args),
                                      name=name, daemon=True)
            process.start()
            child.close()
            handles.append(NodeHandle(name, process, parent))
        for handle in handles:
            try:
                ready = recv_message(handle.conn, timeout=READY_TIMEOUT)
            except (ProtocolError, WorkerDied) as exc:
                raise NodeError(f"node {handle.name} never became "
                                f"ready: {exc}") from None
            finally:
                handle.conn.close()
            if not ready.get("ok"):
                raise NodeError(f"node {handle.name} failed to start: "
                                f"{ready.get('error')}")
            handle.port, handle.pid = ready["port"], ready["pid"]
            handle.epoch = ready["epoch"]
    except BaseException:
        for handle in handles:
            reap(handle, kill=True)
        raise
    return handles


def reap(handle: NodeHandle, kill: bool = False) -> None:
    """Join (after SIGKILL, with *kill*) one node process and release
    its fds: the handshake pipe and the process sentinel."""
    if not handle.alive:
        return
    handle.alive = False
    process = handle.process
    if kill:
        process.kill()
    process.join(timeout=30.0)
    if process.is_alive():  # pragma: no cover - a stuck node
        process.kill()
        process.join(timeout=10.0)
    handle.conn.close()
    if not process.is_alive():
        process.close()


# -- the client ---------------------------------------------------------------


class NodeClient:
    """One blocking framed-JSON connection to one node; threads sharing
    it serialize on its :attr:`lock`."""

    #: Raised for a reply with ``ok: false``.
    error = NodeError

    def __init__(self, address: Tuple[str, int], timeout: float = 30.0,
                 name: Optional[str] = None) -> None:
        self.address = tuple(address)
        self.timeout = timeout
        self.name = name or f"node {address[0]}:{address[1]}"
        self.lock = threading.Lock()
        self._sock = socket.create_connection(address, timeout=timeout)

    def request(self, message: Dict[str, object],
                timeout: Optional[float] = None) -> Dict[str, object]:
        """One round trip; raises :attr:`error` unless the reply is ok."""
        send_frame_sync(self._sock, message)
        reply = recv_frame_sync(self._sock, timeout=timeout or self.timeout)
        if not reply.get("ok"):
            raise self.error(
                f"{self.name} {message.get('kind')} failed: "
                f"{reply.get('error_type')}: {reply.get('error')}")
        return reply

    def status(self) -> Dict[str, object]:
        return self.request({"kind": "status"})

    def shutdown(self) -> Dict[str, object]:
        return self.request({"kind": "shutdown"})

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "NodeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
