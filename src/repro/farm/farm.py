"""The farm client: a router over shard nodes behind one API.

:class:`SchemaFarm` mirrors the single-process
:class:`~repro.service.SchemaService` surface — ``read()`` /
``submit()`` / ``batch()`` plus the write path — over one node process
(:class:`~repro.farm.worker.ShardWorker`) per shard, holding one
:class:`~repro.node.NodeClient` each.  Every reply carries the shard's
epoch, so the client keeps a per-shard token vector; cross-shard
import staleness compares a recorded ``(home shard, home epoch)``
against it.  Requests to one shard serialize on its client's lock; a
thread pool overlaps requests *across* shards, which is the point —
committed-writer throughput scales with the shard count
(``benchmarks/test_floors.py::test_c2_shard_speedup`` holds it to
4x from 1 to 8 shards).
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.farm.router import ShardRouter
from repro.fuzz.history import Op, SessionPlan
from repro.gom.persistence import save_json_atomic
from repro.obs.metrics import rollup_snapshots
from repro.node import NodeClient, NodeError, NodeHandle, reap, spawn
from repro.storage.store import shard_directory
from repro.wire import ProtocolError, WorkerDied

__all__ = ["FarmError", "SchemaFarm"]

CONFIG_NAME = "farm.json"

_SCHEMA_RE = re.compile(r"\bschema\s+([A-Za-z_][A-Za-z0-9_]*)\s+is\b")


class FarmError(NodeError):
    """A farm-level failure: routing, shard error reply, lost shard."""


class _ShardClient(NodeClient):
    error = FarmError  # a shard's error reply raises the farm's error


class SchemaFarm:
    """A multi-tenant schema farm: one node process per shard."""

    def __init__(self, directory: str, shards: int, features) -> None:
        from repro.farm.worker import ShardWorker
        self.directory = directory
        self.router = ShardRouter(shards)
        self.features = tuple(features)
        #: Installed cross-shard imports the client arranged:
        #: (importer shard, sid wire-form as canonical JSON) -> record.
        self._imports: Dict[Tuple[int, str], Dict[str, object]] = {}
        # A failed start reaps every node it spawned.
        self.nodes: List[NodeHandle] = spawn([
            (f"shard-{index}", ShardWorker,
             (self.shard_directory(index), index, self.features))
            for index in range(shards)])
        #: Per-shard epoch tokens, updated from every reply.
        self.epochs = {index: node.epoch
                       for index, node in enumerate(self.nodes)}
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, shards), thread_name_prefix="farm-client")
        self._closed = False
        self._clients: List[NodeClient] = []
        try:
            for index, node in enumerate(self.nodes):
                self._clients.append(
                    _ShardClient(node.address, name=f"shard {index}"))
        except BaseException:
            self.kill()
            raise

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(cls, directory: str, shards: Optional[int] = None,
             features: Optional[Sequence[str]] = None) -> "SchemaFarm":
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
        return cls(directory, shards, features)

    def shard_directory(self, shard: int) -> str:
        return shard_directory(self.directory, shard)

    def _release(self, kill: bool) -> None:
        """Reap every shard node and release every fd (sockets, pipes,
        process sentinels)."""
        self._closed = True
        for client in self._clients:
            client.close()
        for node in self.nodes:
            reap(node, kill=kill)
        self._pool.shutdown(wait=not kill)

    def close(self) -> None:
        """Shut every shard down cleanly (WALs stay committed)."""
        if self._closed:
            return
        for index in range(len(self._clients)):
            try:
                self.request(index, {"kind": "shutdown"}, timeout=30.0)
            except (NodeError, WorkerDied, ProtocolError, OSError):
                pass
        self._release(kill=False)

    def kill(self) -> None:
        """SIGKILL every shard mid-flight (crash-recovery tests)."""
        if not self._closed:
            self._release(kill=True)

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
        """One request/reply round trip with a shard node."""
        if self._closed:
            raise FarmError("the farm is closed")
        client = self._clients[shard]
        with client.lock:
            reply = client.request(message, timeout=timeout)
            # Inside the lock: replies on one shard arrive in epoch
            # order, so the token only ever moves forward.
            self.epochs[shard] = max(self.epochs.get(shard, 0),
                                     reply["epoch"])
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
        reply = self.request(shard, {"kind": "write", "source": source,
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
        """Bind a replay handle on *schema*'s shard (see ShardWorker)."""
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
        return reply[op], reply["epoch"]

    def batch(self, requests: Sequence[Tuple[str, str, Dict[str, object]]]
              ) -> List[Tuple[object, int]]:
        """Run several reads, overlapped across shards.

        Each request is ``(schema, op, params)``; results come back in
        request order as ``(result, epoch)`` pairs.  Requests hitting
        one shard are serialized by its client lock and therefore observe
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
        target = {"kind": "schema", "name": imported}
        if shard_a != shard_b:
            export, install, key = self._copy_foreign(
                shard_a, shard_b, imported, check_mode)
            target = {"kind": "id", "id": export["sid"]}
        self.request(shard_a, {"kind": "bind", "handle": imported_handle,
                               "target": target})
        reply = self.session(importer, SessionPlan(ops=[Op("add_import", {
            "schema": importer_handle, "imported": imported_handle})]),
            check_mode)
        if not reply["committed"]:
            raise FarmError(f"add_import session on shard {shard_a} did "
                            f"not commit: {reply.get('violations')}")
        result = {"cross_shard": shard_a != shard_b, "shard": shard_a,
                  "epoch": reply["epoch"]}
        if shard_a != shard_b:
            self._imports[key] = {
                "importer": importer, "imported": imported,
                "importer_shard": shard_a, "home_shard": shard_b,
                "home_epoch": export["epoch"], "sid": export["sid"],
                "installed_facts": install["installed"]}
            result.update(home_epoch=export["epoch"],
                          installed_facts=install["installed"])
        return result

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
            self.request(shard, {"kind": "ping"})
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

    # -- farm-wide operations --------------------------------------------------

    def _each(self, kind: str) -> Dict[int, Dict[str, object]]:
        """One *kind* request per shard, overlapped across shards."""
        futures = {shard: self._pool.submit(self.request, shard,
                                            {"kind": kind})
                   for shard in range(self.shards)}
        return {shard: future.result() for shard, future in futures.items()}

    def digests(self) -> Dict[int, str]:
        """Per-shard order-independent EDB content digests."""
        return {shard: reply["digest"]
                for shard, reply in self._each("digest").items()}

    def check_all(self) -> Dict[int, List[str]]:
        """Run a full consistency check on every shard's snapshot;
        returns shard -> violated constraint names (all empty = green)."""
        return {shard: reply["violations"]
                for shard, reply in self._each("check").items()}

    def checkpoint_all(self) -> None:
        """Fold every shard's WAL into a fresh snapshot."""
        self._each("checkpoint")

    def recovery_reports(self) -> Dict[int, Optional[Dict[str, object]]]:
        """What each shard's recovery found when it opened."""
        return {shard: reply["recovery"]
                for shard, reply in self._each("status").items()}

    def metrics_rollup(self) -> Dict[str, object]:
        """Per-shard metrics snapshots merged into one farm-level view."""
        rollup = rollup_snapshots([reply["metrics"] for reply
                                   in self._each("status").values()])
        rollup["shards"] = self.shards
        return rollup

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<SchemaFarm shards={self.router.shards} {state} "
                f"dir={self.directory!r}>")
