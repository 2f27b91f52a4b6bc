"""The farm client: a pool of shard workers behind one API.

:class:`SchemaFarm` mirrors the single-process
:class:`~repro.service.SchemaService` surface — ``read()`` /
``submit()`` / ``batch()`` plus the write path — but fans out across
worker *processes*, one durable schema manager per shard.  Every reply
carries the shard's epoch, so the client holds a per-shard epoch token
vector; reads report the epoch they were served at, and cross-shard
import staleness is the comparison of a recorded ``(home shard, home
epoch)`` pair against the token vector.

Request/response over each worker pipe is serialized by a per-shard
lock; a thread pool overlaps requests *across* shards, which is the
whole point — with one writer process per shard, committed-writer
throughput scales with the shard count (``benchmarks/bench_c2_farm.py``
measures exactly that).
"""

from __future__ import annotations

import json
import os
import re
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.farm.router import ShardRouter
from repro.fuzz.history import Op, SessionPlan
from repro.gom.persistence import save_json_atomic
from repro.obs.metrics import rollup_snapshots
from repro.storage.store import shard_directory
from repro.wire import ProtocolError, WorkerDied, recv_message, send_message

__all__ = ["FarmError", "SchemaFarm"]

CONFIG_NAME = "farm.json"

_SCHEMA_RE = re.compile(r"\bschema\s+([A-Za-z_][A-Za-z0-9_]*)\s+is\b")


class FarmError(ReproError):
    """A farm-level failure: routing, worker error reply, lost worker."""


class _Shard:
    """The client's handle on one worker process."""

    __slots__ = ("index", "process", "conn", "lock")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()


class SchemaFarm:
    """A multi-tenant schema farm: one worker process per shard."""

    def __init__(self, directory: str, shards: int, features,
                 metrics: bool = True,
                 ready_timeout: float = 120.0) -> None:
        self.directory = directory
        self.router = ShardRouter(shards)
        self.features = tuple(features)
        self.metrics_enabled = metrics
        self.ready_timeout = ready_timeout
        #: Per-shard epoch tokens, updated from every reply.
        self.epochs: Dict[int, int] = {}
        #: Installed cross-shard imports the client arranged:
        #: (importer shard, sid wire-form as canonical JSON) -> record.
        self._imports: Dict[Tuple[int, str], Dict[str, object]] = {}
        self._shards: List[_Shard] = []
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, shards), thread_name_prefix="farm-client")
        self._closed = False
        self._start_workers()

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(cls, directory: str, shards: Optional[int] = None,
             features: Optional[Sequence[str]] = None,
             metrics: bool = True) -> "SchemaFarm":
        """Open (or create) a farm rooted at *directory*.

        The shard count and feature stack are persisted in
        ``farm.json`` on first open; reopening an existing farm reads
        them back (and rejects a contradictory *shards* argument —
        resharding would strand WALs).
        """
        from repro.farm import FARM_FEATURES
        os.makedirs(directory, exist_ok=True)
        config_path = os.path.join(directory, CONFIG_NAME)
        if os.path.exists(config_path):
            with open(config_path, "r", encoding="utf-8") as handle:
                config = json.load(handle)
            if shards is not None and shards != config["shards"]:
                raise FarmError(
                    f"farm at {directory} has {config['shards']} shard(s); "
                    f"cannot reopen with {shards} — resharding is not "
                    f"supported")
            shards = config["shards"]
            features = tuple(config["features"])
        else:
            shards = 4 if shards is None else shards
            features = tuple(FARM_FEATURES if features is None
                             else features)
            # Atomic + durable: the manifest pins the shard count, and a
            # torn or rename-lost farm.json would re-create the farm
            # with a different layout, stranding every shard WAL.
            save_json_atomic({"shards": shards, "features": list(features)},
                             config_path)
        return cls(directory, shards, features, metrics=metrics)

    def shard_directory(self, shard: int) -> str:
        return shard_directory(self.directory, shard)

    def _start_workers(self) -> None:
        import multiprocessing
        from repro.farm.worker import worker_main
        context = multiprocessing.get_context()
        try:
            for index in range(self.router.shards):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=worker_main,
                    args=(child_conn, index, self.shard_directory(index),
                          self.features, self.metrics_enabled),
                    name=f"farm-shard-{index}", daemon=True)
                process.start()
                child_conn.close()
                self._shards.append(_Shard(index, process, parent_conn))
            for shard in self._shards:
                ready = recv_message(shard.conn, timeout=self.ready_timeout)
                if ready.get("kind") != "ready":
                    raise FarmError(
                        f"shard {shard.index} failed to start: {ready!r}")
                self.epochs[shard.index] = ready.get("epoch", 0)
        except BaseException:
            # A failed start must not leak the shards already spawned:
            # kill them, reap the zombies, and release every pipe fd and
            # process sentinel before surfacing the error.
            self._closed = True
            for shard in self._shards:
                shard.process.kill()
            self._reap(pool_wait=False)
            raise

    def _reap(self, pool_wait: bool) -> None:
        """Join every worker and release all fds (pipes + sentinels).

        ``Process.join`` reaps the child (no zombie), but the pipe fd
        and the process *sentinel* fd stay open until ``conn.close()``
        / ``Process.close()`` — a farm that skipped those leaked four
        fds per open/kill cycle.
        """
        for shard in self._shards:
            shard.process.join(timeout=30.0)
            if shard.process.is_alive():  # pragma: no cover - stuck worker
                shard.process.kill()
                shard.process.join(timeout=10.0)
            shard.conn.close()
            if not shard.process.is_alive():
                shard.process.close()
        self._pool.shutdown(wait=pool_wait)

    def close(self) -> None:
        """Shut every worker down cleanly (WALs stay committed)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                with shard.lock:
                    send_message(shard.conn, {"kind": "shutdown"})
                    recv_message(shard.conn, timeout=30.0)
            except (WorkerDied, ProtocolError, OSError):
                pass
        self._reap(pool_wait=True)

    def kill(self) -> None:
        """SIGKILL every worker mid-flight (crash-recovery tests)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.process.kill()
        self._reap(pool_wait=False)

    def __enter__(self) -> "SchemaFarm":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------------

    @property
    def shards(self) -> int:
        return self.router.shards

    def shard_of(self, path: str) -> int:
        return self.router.shard_of(path)

    def request(self, shard: int, message: Dict[str, object],
                timeout: Optional[float] = None) -> Dict[str, object]:
        """One request/reply round-trip with a shard worker."""
        if self._closed:
            raise FarmError("the farm is closed")
        entry = self._shards[shard]
        with entry.lock:
            send_message(entry.conn, message)
            reply = recv_message(entry.conn, timeout=timeout)
        epoch = reply.get("epoch")
        if isinstance(epoch, int):
            previous = self.epochs.get(shard, 0)
            self.epochs[shard] = max(previous, epoch)
        if not reply.get("ok", False):
            raise FarmError(
                f"shard {shard} {message.get('kind')} failed: "
                f"{reply.get('error_type')}: {reply.get('error')}")
        return reply

    # -- the SchemaService-shaped surface --------------------------------------

    def define(self, source: str, home: Optional[str] = None,
               check_mode: str = "delta") -> Dict[str, object]:
        """Define schemas from source on the shard their root routes to.

        *home* names the routing root schema; omitted, it is parsed
        from the first ``schema <Name> is`` of the source.
        """
        if home is None:
            match = _SCHEMA_RE.search(source)
            if match is None:
                raise FarmError(
                    "cannot route define(): no 'schema <Name> is' in the "
                    "source and no home= given")
            home = match.group(1)
        shard = self.shard_of(home)
        reply = self.request(shard, {"kind": "define", "source": source,
                                     "check_mode": check_mode})
        return {"shard": shard, "epoch": reply["epoch"],
                "schemas": reply["schemas"]}

    def session(self, schema: str, plan: SessionPlan,
                check_mode: str = "delta") -> Dict[str, object]:
        """Run one fuzzer-format session plan on *schema*'s shard."""
        shard = self.shard_of(schema)
        return self.request(shard, {"kind": "session",
                                    "plan": plan.to_dict(),
                                    "check_mode": check_mode})

    def submit(self, schema: str, plan: SessionPlan,
               check_mode: str = "delta") -> Future:
        """Dispatch a session plan asynchronously; returns a future."""
        return self._pool.submit(self.session, schema, plan, check_mode)

    def bind(self, schema: str, handle: str,
             target: Dict[str, object]) -> Dict[str, object]:
        """Bind a replay handle on *schema*'s shard (see worker docs)."""
        shard = self.shard_of(schema)
        return self.request(shard, {"kind": "bind", "handle": handle,
                                    "target": target})

    def read(self, schema: str, op: str,
             **params: object) -> Tuple[object, int]:
        """One name-level snapshot read; returns (result, read epoch)."""
        shard = self.shard_of(schema)
        params.setdefault("schema", schema)
        reply = self.request(shard, {"kind": "read", "op": op,
                                     "params": params})
        return reply["result"], reply["read_epoch"]

    def batch(self, requests: Sequence[Tuple[str, str, Dict[str, object]]]
              ) -> List[Tuple[object, int]]:
        """Run several reads, overlapped across shards.

        Each request is ``(schema, op, params)``; results come back in
        request order as ``(result, epoch)`` pairs.  Requests hitting
        one shard are serialized by its pipe lock and therefore observe
        non-decreasing epochs; there is deliberately no cross-shard
        epoch pinning (shards commit independently — that is the
        trade the farm makes for writer scale-out).
        """
        futures = [self._pool.submit(self.read, schema, op, **dict(params))
                   for schema, op, params in requests]
        return [future.result() for future in futures]

    # -- cross-shard import ----------------------------------------------------

    def import_schema(self, importer: str, imported: str,
                      check_mode: str = "delta") -> Dict[str, object]:
        """Make *importer* import *imported*, exchanging snapshots
        across shards when the two route differently.

        Same shard: a plain ``add_import`` session.  Cross-shard: the
        home shard exports the imported schema's public closure at its
        current epoch, the importing shard installs it as foreign facts
        (WAL-logged, EES-checked) with a ``ForeignSchema`` provenance
        fact, and then runs the ``add_import`` session against the
        installed copy.  The returned record includes the home epoch
        the copy is pinned at.
        """
        shard_a = self.shard_of(importer)
        shard_b = self.shard_of(imported)
        importer_handle = f"farm:importer:{importer}"
        imported_handle = f"farm:imported:{imported}"
        self.bind(importer, importer_handle,
                  {"kind": "schema", "name": importer})
        if shard_a == shard_b:
            self.request(shard_a, {
                "kind": "bind", "handle": imported_handle,
                "target": {"kind": "schema", "name": imported}})
            reply = self._add_import_session(
                shard_a, importer_handle, imported_handle, check_mode)
            return {"cross_shard": False, "shard": shard_a,
                    "epoch": reply["epoch"]}
        export, install, key = self._copy_foreign(shard_a, shard_b, imported,
                                                  check_mode)
        home_epoch = export["epoch"]
        self.request(shard_a, {
            "kind": "bind", "handle": imported_handle,
            "target": {"kind": "id", "id": export["sid"]}})
        reply = self._add_import_session(
            shard_a, importer_handle, imported_handle, check_mode)
        record = {
            "importer": importer, "imported": imported,
            "importer_shard": shard_a, "home_shard": shard_b,
            "home_epoch": home_epoch, "sid": export["sid"],
            "installed_facts": install["installed"],
        }
        self._imports[key] = record
        return {"cross_shard": True, "shard": shard_a,
                "epoch": reply["epoch"], "home_epoch": home_epoch,
                "installed_facts": install["installed"]}

    def _copy_foreign(self, shard_a: int, shard_b: int, imported: str,
                      check_mode: str = "delta"):
        """Export *imported* from its home shard *shard_b* at its current
        epoch and install the copy on *shard_a*; returns the two replies
        and the import's key."""
        export = self.request(shard_b, {"kind": "export_excerpt",
                                        "schema": imported})
        install = self.request(shard_a, {
            "kind": "install_foreign", "sid": export["sid"],
            "excerpt": export["excerpt"], "home_shard": shard_b,
            "home_epoch": export["epoch"], "check_mode": check_mode})
        return export, install, (shard_a, json.dumps(export["sid"],
                                                     sort_keys=True))

    def _add_import_session(self, shard: int, importer_handle: str,
                            imported_handle: str,
                            check_mode: str) -> Dict[str, object]:
        plan = SessionPlan(ops=[Op("add_import", {
            "schema": importer_handle, "imported": imported_handle})])
        reply = self.request(shard, {"kind": "session",
                                     "plan": plan.to_dict(),
                                     "check_mode": check_mode})
        if not reply.get("committed"):
            raise FarmError(
                f"add_import session on shard {shard} did not commit: "
                f"{reply.get('violations')}")
        return reply

    # -- staleness / invalidation ----------------------------------------------

    def stale_imports(self) -> List[Dict[str, object]]:
        """Installed foreign copies whose home shard has since committed.

        A copy is stale when the home shard's current epoch (the
        client's token vector is refreshed with a live ``epoch`` probe
        here) exceeds the ``home_epoch`` the copy was exported at —
        i.e. the home schema *may* have changed; the farm invalidates
        on every home commit rather than diffing closures remotely.
        """
        homes = {record["home_shard"] for record in self._imports.values()}
        for shard in homes:
            self.request(shard, {"kind": "epoch"})
        return [dict(record) for record in self._imports.values()
                if self.epochs[record["home_shard"]]
                > record["home_epoch"]]

    def refresh_imports(self) -> List[Dict[str, object]]:
        """Re-exchange every stale foreign copy; returns the refreshed
        records (with their new home epochs)."""
        refreshed = []
        for record in self.stale_imports():
            export, _install, key = self._copy_foreign(
                record["importer_shard"], record["home_shard"],
                record["imported"])
            updated = dict(record)
            updated["home_epoch"] = export["epoch"]
            self._imports[key] = updated
            refreshed.append(updated)
        return refreshed

    def foreign_entries(self, shard: int) -> List[List[object]]:
        """The ``(sid, home shard, home epoch)`` triples a shard holds."""
        return self.request(shard, {"kind": "foreign"})["entries"]

    # -- farm-wide operations --------------------------------------------------

    def digests(self) -> Dict[int, str]:
        """Per-shard order-independent EDB content digests."""
        return {shard.index:
                self.request(shard.index, {"kind": "digest"})["digest"]
                for shard in self._shards}

    def check_all(self) -> Dict[int, List[str]]:
        """Run a full consistency check on every shard's snapshot;
        returns shard -> violated constraint names (all empty = green)."""
        futures = {shard.index:
                   self._pool.submit(self.request, shard.index,
                                     {"kind": "check"})
                   for shard in self._shards}
        return {index: future.result()["violations"]
                for index, future in futures.items()}

    def checkpoint_all(self) -> None:
        """Fold every shard's WAL into a fresh snapshot."""
        for shard in self._shards:
            self.request(shard.index, {"kind": "checkpoint"})

    def recovery_reports(self) -> Dict[int, Optional[Dict[str, object]]]:
        """What each worker's recovery found when it opened."""
        return {shard.index:
                self.request(shard.index,
                             {"kind": "recovery"})["recovery"]
                for shard in self._shards}

    def metrics_rollup(self) -> Dict[str, object]:
        """Per-shard metrics snapshots merged into one farm-level view."""
        snapshots = []
        for shard in self._shards:
            reply = self.request(shard.index, {"kind": "metrics"})
            if reply["metrics"]:
                snapshots.append(reply["metrics"])
        rollup = rollup_snapshots(snapshots)
        rollup["shards"] = len(snapshots)
        return rollup

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<SchemaFarm shards={self.router.shards} {state} "
                f"dir={self.directory!r}>")
