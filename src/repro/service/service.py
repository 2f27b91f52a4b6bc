"""Serving concurrent readers from immutable schema snapshots.

The paper's Consistency Control makes the evolution session the atomic
unit of schema change; this module makes it the atomic unit of
*visibility* too.  A :class:`SchemaService` wraps a
:class:`~repro.manager.SchemaManager` and splits its traffic:

* **Reads** never touch the live model.  Each read runs against the
  most recently *published* :class:`~repro.gom.model.SchemaSnapshot` —
  an immutable copy-on-write image of the deductive database (EDB plus
  saturated IDB) stamped with an epoch.  Opening a snapshot takes no
  lock: publication swaps one reference, readers grab whichever image
  is current and keep it for as long as they like.  A read request is
  a callable that receives the snapshot itself, which carries the
  model's read helpers (``type_name``, ``attributes``, …), ``epoch``,
  ``check()`` and ``versions``.

* **Writes** (evolution sessions) are serialized by the model's writer
  lock and publish a new snapshot at every successful EES (commit).
  A rolled-back session publishes nothing — readers can never observe
  a half-evolved schema, which is exactly the session-atomicity
  guarantee of §3.5 extended to concurrent observers.

The service runs reads on a thread pool so callers get futures and
batching; the guarantees above hold just as well for raw threads
calling :meth:`SchemaService.snapshot` directly.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence

from repro.control.protocol import (
    ProtocolResult,
    RepairChooser,
    choose_first,
)
from repro.gom.model import SchemaSnapshot
from repro.manager import SchemaManager

__all__ = ["SchemaService"]


class SchemaService:
    """A thread-pooled front-end over one schema manager.

    Reads are dispatched to a pool of worker threads, each serving from
    the current snapshot; evolution requests run on the calling thread
    and serialize on the model's writer lock.  Metrics (when the
    manager's observability bundle is enabled): ``service.reads``,
    ``service.read_ms``, and ``service.snapshot_age_ms`` — the last one
    measures how stale the images being served are, which is the price
    of lock-free reads.
    """

    def __init__(self, manager: SchemaManager, readers: int = 4) -> None:
        if readers < 1:
            raise ValueError("a service needs at least one reader thread")
        self.manager = manager
        self.model = manager.model
        self.obs = self.model.db.obs
        self.model.enable_snapshots()
        self._pool = ThreadPoolExecutor(
            max_workers=readers, thread_name_prefix="schema-reader")
        self.readers = readers
        self._closed = False

    # -- reading ---------------------------------------------------------------

    def snapshot(self):
        """The currently published schema snapshot (lock-free)."""
        snapshot = self.model.snapshot()
        if self.obs.enabled:
            self.obs.metrics.histogram("service.snapshot_age_ms").observe(
                snapshot.age_seconds() * 1000.0)
        return snapshot

    def submit(self, request: Callable[[SchemaSnapshot], object]) -> Future:
        """Dispatch one read request to the pool; returns a future.

        The request receives the :class:`~repro.gom.model.SchemaSnapshot`
        current at execution time, not submission time.
        """
        return self._submit_read(request, None)

    def _submit_read(self, request: Callable[[SchemaSnapshot], object],
                     snapshot: Optional[SchemaSnapshot]) -> Future:
        """Pool dispatch with a close-safe guard.

        Checking ``_closed`` first is not enough: ``close()`` on another
        thread can shut the pool down between the check and the submit,
        and the executor then raises its own RuntimeError.  Both paths
        must surface the same clean "service is closed" error.
        """
        if self._closed:
            raise RuntimeError("the schema service is closed")
        try:
            return self._pool.submit(self._run_read, request, snapshot)
        except RuntimeError as exc:  # pool shut down under us
            raise RuntimeError("the schema service is closed") from exc

    def read(self, request: Callable[[SchemaSnapshot], object]) -> object:
        """Dispatch one read request and wait for its result."""
        return self.submit(request).result()

    def batch(self, requests: Sequence[Callable[[SchemaSnapshot], object]]
              ) -> List[object]:
        """Run several read requests against **one** snapshot.

        The whole batch observes a single epoch — a writer committing
        between two of its requests cannot make the batch see two
        different schemas.  Results come back in request order.
        """
        snapshot = self.snapshot()
        futures = [self._submit_read(request, snapshot)
                   for request in requests]
        return [future.result() for future in futures]

    def _run_read(self, request: Callable[[SchemaSnapshot], object],
                  snapshot: Optional[SchemaSnapshot]) -> object:
        if snapshot is None:
            snapshot = self.snapshot()
        started = time.perf_counter()
        with self.obs.span("service.read", epoch=snapshot.epoch):
            result = request(snapshot)
        if self.obs.enabled:
            self.obs.metrics.counter("service.reads").inc()
            self.obs.metrics.histogram("service.read_ms").observe(
                (time.perf_counter() - started) * 1000.0)
        return result

    def check(self):
        """A full consistency check of the current snapshot, on the
        calling thread (it never touches the reader pool, so it keeps
        working after :meth:`close`)."""
        return self.snapshot().check()

    # -- writing ---------------------------------------------------------------

    def evolve(self, changes, chooser: RepairChooser = choose_first,
               check_mode: str = "delta") -> ProtocolResult:
        """Run one evolution session through the §3.5 protocol.

        Serializes on the writer lock; a successful EES publishes the
        next snapshot (its epoch is on the returned result), a rollback
        publishes nothing.
        """
        return self.manager.evolve(changes, chooser=chooser,
                                   check_mode=check_mode)

    def define(self, source: str, check_mode: str = "delta"):
        """Define schemas from source (one consistent session)."""
        return self.manager.define(source, check_mode=check_mode)

    # -- lifecycle -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.model.epoch

    def close(self, wait: bool = True) -> None:
        """Shut the reader pool down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=wait)

    def __enter__(self) -> "SchemaService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
