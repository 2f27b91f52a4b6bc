"""The write-ahead evolution log: framed, checksummed, fsync'd records.

The paper's Consistency Control makes the *evolution session* the atomic
unit of schema change (BES … EES).  The log makes that atomicity
durable: every session writes

* one ``bes`` record when it opens,
* one ``op`` record per primitive modification (the +/- base-predicate
  delta, encoded with the persistence layer's tagged values), and
* one ``commit`` record (EES, success — carries the id-counter frontier)
  or one ``rollback`` record (EES, undo).

Only the ``commit`` record is fsync'd: it is the durability point, and
fsyncing it makes everything the session logged before it durable too
(POSIX fsync flushes the whole file).  Recovery replays committed
sessions in log order and ignores everything else, so a crash at any
instant yields exactly the committed-session state.

Records are :mod:`repro.wire` frames — the codec the farm's pipes and
the replication sockets speak too; the log adds only the record-type
check and the :class:`WalRecord` wrapper.  A torn tail — a half-written
header, a short payload, or a frame the codec rejects (checksum
mismatch, length over the cap) — marks the end of the valid prefix;
:func:`read_log` reports it and :meth:`WriteAheadLog.open_for_append`
truncates it away before appending anything new.  An oversize record
is refused at append, before any byte reaches the file, so it can
never pass for a torn tail and take later commits with it.

Framing is deterministic, so re-encoding a decoded payload reproduces
the exact bytes: a replica appending shipped records through its own
:class:`WriteAheadLog` builds a byte-identical prefix of the primary's
log, which is what makes durable byte offsets comparable across nodes
during failover elections.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import wire
from repro.errors import GomModelError
from repro.storage.faults import FaultInjector, NO_FAULTS

#: Record types understood by recovery.
RECORD_TYPES = ("bes", "op", "commit", "rollback", "note")


class WalFormatError(GomModelError):
    """A structurally impossible evolution log (not a torn tail)."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record with its position in the file."""

    kind: str
    payload: Dict[str, object]
    offset: int      # byte offset of the frame header
    end_offset: int  # byte offset just past the payload

    @property
    def session(self) -> Optional[int]:
        value = self.payload.get("session")
        return value if isinstance(value, int) else None


@dataclass
class LogScan:
    """The result of reading a log file: the valid prefix, described."""

    records: List[WalRecord] = field(default_factory=list)
    valid_bytes: int = 0
    torn_bytes: int = 0   # bytes past the valid prefix (0 = clean file)

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


def encode_frame(payload: Dict[str, object]) -> bytes:
    """Frame one record (:func:`repro.wire.encode`); raises
    :class:`~repro.wire.ProtocolError` for a payload over the cap."""
    if payload.get("type") not in RECORD_TYPES:
        raise WalFormatError(f"unknown record type {payload.get('type')!r}")
    return wire.encode(payload)


def decode_record(data: bytes, offset: int) -> Optional[WalRecord]:
    """Decode the one record framed at *offset* inside *data*.

    Returns None when the bytes there are torn, corrupt, of an unknown
    record type, or simply not all present yet — the caller decides
    whether that means "end of the valid prefix" (a scan) or "wait for
    more bytes" (a replica's receive buffer).
    """
    try:
        frame = wire.decode(data, offset)
    except wire.ProtocolError:
        return None
    if frame is None or frame[0].get("type") not in RECORD_TYPES:
        return None
    payload, end = frame
    return WalRecord(kind=payload["type"], payload=payload, offset=offset,
                     end_offset=end)


def read_log(path: str) -> LogScan:
    """Decode the valid prefix of the log at *path*.

    Returns every intact record plus where the valid prefix ends; a
    missing file is an empty (clean) log.  Corruption *at the tail* is
    expected — it is what a crash mid-append leaves behind — and is
    reported, not raised.
    """
    scan = LogScan()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return scan
    offset = 0
    while offset < len(data):
        record = decode_record(data, offset)
        if record is None:
            break
        scan.records.append(record)
        offset = record.end_offset
    scan.valid_bytes = offset
    scan.torn_bytes = len(data) - offset
    return scan


def _truncate(path: str, size: int) -> None:
    """Cut the file at *path* to *size* bytes, durably."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())


class WriteAheadLog:
    """Appends framed records to one log file, crash point by crash point.

    ``on_write(records, bytes, fsyncs, fsync_seconds)`` is the
    instrumentation seam the store uses to thread counters into the
    active session's :class:`~repro.datalog.plan.EngineStats` and the
    fsync-latency histogram of the observability layer.

    Appends are serialized by an internal lock and durability uses
    **group commit**: each synced append targets the absolute byte
    offset its frame ends at, and only one thread fsyncs at a time.  A
    committer whose target offset is already covered by a concurrent
    fsync (POSIX fsync flushes the whole file, so any later fsync covers
    every earlier write) piggybacks on it and reports zero fsyncs —
    under a bursty multi-session writer, many commits share one disk
    flush.
    """

    def __init__(self, path: str, injector: FaultInjector = NO_FAULTS,
                 on_write: Optional[
                     Callable[[int, int, int, float], None]] = None
                 ) -> None:
        self.path = path
        self.injector = injector
        self.on_write = on_write
        self._handle = None
        self._lock = threading.Lock()
        self._synced_cond = threading.Condition(self._lock)
        self._written = 0   # bytes appended + flushed to the OS
        self._synced = 0    # bytes known durable (covered by an fsync)
        self._syncing = False

    # -- lifecycle -------------------------------------------------------------

    def open_for_append(self) -> LogScan:
        """Scan the log, truncate any torn tail, and open for appending.

        Creating the file also fsyncs the parent directory: a fresh
        log whose *entry* was never hardened can disappear wholesale on
        power failure, taking its fsync'd commit records with it.
        """
        scan = read_log(self.path)
        if scan.torn:
            _truncate(self.path, scan.valid_bytes)
        created = not os.path.exists(self.path)
        self._handle = open(self.path, "ab")
        if created:
            from repro.gom.persistence import fsync_directory
            fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        self._written = self._synced = scan.valid_bytes
        return scan

    @property
    def durable_offset(self) -> int:
        """Bytes of the log known durable (covered by an fsync).

        The election currency of failover: replicas append the shipped
        frames through their own logs, so this offset is comparable
        across nodes — the replica with the highest durable offset
        holds the longest committed prefix.
        """
        with self._lock:
            return self._synced

    @property
    def written_offset(self) -> int:
        """Bytes appended and flushed to the OS (≥ :attr:`durable_offset`)."""
        with self._lock:
            return self._written

    def truncate_to(self, offset: int) -> None:
        """Drop everything past byte *offset* (which must be ≤ durable).

        Promotion uses this: a follower's log may carry flushed but
        un-fsync'd frames of a session whose commit never arrived from
        the dead primary — its *torn tail* in replication terms.  The
        promoted node (and every follower re-subscribing to it) cuts
        back to its durable offset so all logs stay byte-aligned
        prefixes of the new primary's.
        """
        with self._lock:
            if offset > self._synced:
                raise WalFormatError(
                    f"cannot truncate to {offset}: only {self._synced} "
                    f"bytes are durable")
            if self._handle is not None:
                self._handle.close()
            _truncate(self.path, offset)
            self._handle = open(self.path, "ab")
            self._written = self._synced = offset

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def reset(self) -> None:
        """Empty the log (after a checkpoint made its contents redundant)."""
        self.truncate_to(0)

    # -- appends ---------------------------------------------------------------

    def append(self, payload: Dict[str, object], sync: bool = False) -> None:
        """Append one record; with *sync*, make it (and the prefix) durable.

        Crash points bracket every boundary; ``wal.torn_write`` writes
        half the frame before dying, modelling a power cut mid-write.
        A synced append may *piggyback* on a concurrent thread's fsync
        (group commit) — ``on_write`` then reports zero fsyncs for it.
        A record over the frame cap raises before anything is written.
        """
        if self._handle is None:
            raise WalFormatError("the evolution log is not open")
        frame = encode_frame(payload)
        injector = self.injector
        with self._lock:
            handle = self._handle
            injector.fire("wal.before_write")
            injector.fire("wal.torn_write",
                          before_crash=lambda: (handle.write(frame[:max(
                              1, len(frame) // 2)]), handle.flush()))
            handle.write(frame)
            injector.fire("wal.after_write")
            handle.flush()
            self._written += len(frame)
            target = self._written
        fsyncs = 0
        fsync_seconds = 0.0
        if sync:
            fsyncs, fsync_seconds = self._sync_to(target)
        if self.on_write is not None:
            self.on_write(1, len(frame), fsyncs, fsync_seconds)

    def _sync_to(self, target: int) -> Tuple[int, float]:
        """Make the log durable up to byte offset *target*.

        Returns ``(fsyncs, fsync_seconds)`` — ``(0, 0.0)`` when another
        thread's fsync already covered the target (a piggybacked group
        commit), ``(1, elapsed)`` when this thread performed the flush.
        """
        with self._synced_cond:
            while True:
                if self._synced >= target:
                    return 0, 0.0
                if not self._syncing:
                    break
                self._synced_cond.wait()
            self._syncing = True
            handle = self._handle
            upto = self._written  # fsync covers everything flushed so far
        try:
            self.injector.fire("wal.before_fsync")
            started = time.perf_counter()
            os.fsync(handle.fileno())
            elapsed = time.perf_counter() - started
            self.injector.fire("wal.after_fsync")
        except BaseException:
            # A simulated (or real) crash mid-fsync: let a waiter take
            # over as syncer instead of leaving everyone blocked.
            with self._synced_cond:
                self._syncing = False
                self._synced_cond.notify_all()
            raise
        with self._synced_cond:
            self._syncing = False
            self._synced = max(self._synced, upto)
            self._synced_cond.notify_all()
        return 1, elapsed

    def sync(self) -> None:
        """fsync the log without appending (used when closing cleanly)."""
        if self._handle is None:
            return
        with self._lock:
            self._handle.flush()
            target = self._written
        fsyncs, fsync_seconds = self._sync_to(target)
        if self.on_write is not None:
            self.on_write(0, 0, fsyncs, fsync_seconds)


def group_operations(records: Iterable[WalRecord]
                     ) -> List[Tuple[int, List[WalRecord], WalRecord]]:
    """Triples ``(session, op records, commit record)`` in commit order.

    Only sessions whose ``commit`` record survived intact appear —
    rolled-back and in-flight sessions replay as nothing, which is
    exactly the paper's session atomicity.  Sessions are strictly
    sequential (the Consistency Control allows one open session per
    model), but the grouping only relies on record order, so
    interleaved histories would replay correctly too.
    """
    ops: Dict[int, List[WalRecord]] = {}
    order: List[Tuple[int, List[WalRecord], WalRecord]] = []
    for record in records:
        session = record.session
        if session is None:
            continue
        if record.kind == "bes":
            ops[session] = []
        elif record.kind == "op":
            ops.setdefault(session, []).append(record)
        elif record.kind == "commit":
            order.append((session, ops.pop(session, []), record))
        elif record.kind == "rollback":
            ops.pop(session, None)
    return order
