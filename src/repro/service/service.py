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
  is current and keep it for as long as they like.

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
from repro.manager import SchemaManager

__all__ = ["ReadSession", "SchemaService"]


class ReadSession:
    """A lock-free read session pinned to one published snapshot.

    Every read helper of the schema model (``type_id``, ``attributes``,
    ``is_subtype``, ``supertypes``, ``resolve_operation``, …) is
    available directly on the session — delegated to the snapshot —
    plus ``check()`` and ``versions`` for consistency and
    version-lineage queries.  The session observes one epoch for its
    whole lifetime: a writer committing concurrently publishes a *new*
    snapshot and never mutates this one.
    """

    __slots__ = ("snapshot", "opened_at")

    def __init__(self, snapshot) -> None:
        self.snapshot = snapshot
        self.opened_at = time.monotonic()

    @property
    def epoch(self) -> int:
        return self.snapshot.epoch

    @property
    def db(self):
        """The snapshot's read-only deductive database."""
        return self.snapshot.db

    @property
    def versions(self):
        return self.snapshot.versions

    def check(self):
        """A full consistency check against this snapshot."""
        return self.snapshot.check()

    def age_seconds(self) -> float:
        """Seconds since this session's snapshot was published."""
        return self.snapshot.age_seconds()

    def perform(self, request: Callable[["ReadSession"], object]) -> object:
        """Run one read request against this session (batch unit)."""
        return request(self)

    def __getattr__(self, name: str):
        # Delegate the SchemaReadMixin helpers (and anything else the
        # snapshot exposes) so a ReadSession reads like the model.
        return getattr(self.snapshot, name)

    def __repr__(self) -> str:
        return f"<ReadSession epoch={self.snapshot.epoch}>"


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

    def read_session(self) -> ReadSession:
        """Open a read session pinned to the current snapshot."""
        return ReadSession(self.snapshot())

    def submit(self, request: Callable[[ReadSession], object]) -> Future:
        """Dispatch one read request to the pool; returns a future.

        The request receives a fresh :class:`ReadSession` (pinned to
        the snapshot current at execution time, not submission time).
        """
        return self._submit_read(request, None)

    def _submit_read(self, request: Callable[[ReadSession], object],
                     session: Optional[ReadSession]) -> Future:
        """Pool dispatch with a close-safe guard.

        Checking ``_closed`` first is not enough: ``close()`` on another
        thread can shut the pool down between the check and the submit,
        and the executor then raises its own RuntimeError.  Both paths
        must surface the same clean "service is closed" error.
        """
        if self._closed:
            raise RuntimeError("the schema service is closed")
        try:
            return self._pool.submit(self._run_read, request, session)
        except RuntimeError as exc:  # pool shut down under us
            raise RuntimeError("the schema service is closed") from exc

    def read(self, request: Callable[[ReadSession], object]) -> object:
        """Dispatch one read request and wait for its result."""
        return self.submit(request).result()

    def batch(self, requests: Sequence[Callable[[ReadSession], object]]
              ) -> List[object]:
        """Run several read requests against **one** snapshot.

        The whole batch observes a single epoch — a writer committing
        between two of its requests cannot make the batch see two
        different schemas.  Results come back in request order.
        """
        session = self.read_session()
        futures = [self._submit_read(request, session)
                   for request in requests]
        return [future.result() for future in futures]

    def _run_read(self, request: Callable[[ReadSession], object],
                  session: Optional[ReadSession]) -> object:
        if session is None:
            session = self.read_session()
        started = time.perf_counter()
        with self.obs.span("service.read", epoch=session.epoch):
            result = session.perform(request)
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
