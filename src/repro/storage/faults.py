"""Deterministic fault injection for the durability subsystem.

Crash-recovery code is only trustworthy if every crash window is
actually exercised.  The write path of the evolution log and of the
snapshot writer is instrumented with *named crash points* — one per
write / fsync / rename boundary — and a :class:`FaultInjector` decides,
deterministically, whether the process "dies" there.

A simulated crash is a :class:`CrashPoint` exception: the instrumented
code raises it *after* performing exactly the I/O that would have hit
the disk, so whatever bytes were written before the crash survive in
the files (our stand-in for an OS that keeps flushed writes).  Torn
writes are modelled explicitly: a crash point may carry a
``before_crash`` callback that emits a partial frame first.

The crash-matrix test suite iterates every point in
:data:`CRASH_POINTS` (× occurrence counts) and proves that recovery
restores exactly the committed-session state from each one.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ReproError


class CrashPoint(ReproError):
    """A simulated process crash at a named durability boundary."""

    def __init__(self, point: str, occurrence: int) -> None:
        super().__init__(f"injected crash at {point!r} "
                         f"(occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


#: Every named boundary in the durability write paths, in the order the
#: code visits them.  The crash-matrix suite enumerates this tuple, so a
#: new boundary added to the code must be registered here (the injector
#: refuses to arm unknown points to keep the two in sync).
CRASH_POINTS = (
    # -- evolution-log appends (storage/wal.py) ---------------------------
    "wal.before_write",     # record assembled, nothing on disk yet
    "wal.torn_write",       # half the frame written, then death
    "wal.after_write",      # full frame written, not yet flushed
    "wal.before_fsync",     # flushed to the OS, not yet fsync'd
    "wal.after_fsync",      # record durable
    # -- atomic snapshot writes (gom/persistence.py) ----------------------
    "snapshot.before_write",    # temp file created, still empty
    "snapshot.torn_write",      # half the JSON document written
    "snapshot.after_write",     # document complete in the temp file
    "snapshot.before_fsync",    # temp flushed, not yet fsync'd
    "snapshot.before_replace",  # temp durable, rename not yet issued
    "snapshot.after_replace",   # renamed, directory entry not yet fsync'd
    # -- atomic manifest writes (gom/persistence.py save_json_atomic) ------
    "manifest.before_write",    # temp file created, still empty
    "manifest.torn_write",      # half the JSON document written
    "manifest.after_write",     # document complete in the temp file
    "manifest.before_fsync",    # temp flushed, not yet fsync'd
    "manifest.before_replace",  # temp durable, rename not yet issued
    "manifest.after_replace",   # renamed, directory entry not yet fsync'd
    # -- checkpoints (storage/store.py) -----------------------------------
    "checkpoint.before_snapshot",   # checkpoint started
    "checkpoint.before_wal_reset",  # snapshot replaced, old log intact
    "checkpoint.after_wal_reset",   # log truncated, checkpoint complete
)


class FaultInjector:
    """Arms named crash points and fires them deterministically.

    >>> injector = FaultInjector()
    >>> injector.arm("wal.after_write", occurrence=2)

    The instrumented code calls :meth:`fire` at every boundary; the
    second visit of ``wal.after_write`` raises :class:`CrashPoint`.
    An injector with nothing armed (the default wired into production
    code paths) is free: one dict lookup per boundary.
    """

    def __init__(self) -> None:
        self._armed: Dict[str, int] = {}
        #: How often each point has been visited (armed or not), for
        #: matrix tests that need to know which windows a workload opens.
        self.visits: Dict[str, int] = {}
        #: The crash that actually fired, if any.
        self.crashed: Optional[CrashPoint] = None

    # -- arming ----------------------------------------------------------------

    def arm(self, point: str, occurrence: int = 1) -> "FaultInjector":
        """Crash at the *occurrence*-th visit of *point* (1-based)."""
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}; "
                             f"register it in CRASH_POINTS first")
        if occurrence < 1:
            raise ValueError("occurrence is 1-based")
        self._armed[point] = occurrence
        return self

    # -- firing ----------------------------------------------------------------

    def fire(self, point: str,
             before_crash: Optional[Callable[[], None]] = None) -> None:
        """Visit *point*; die here when armed for this occurrence.

        *before_crash* performs the partial I/O that models a torn
        write — it runs only when the crash actually fires, so the
        un-armed hot path never pays for it.

        Once a crash has fired, every later boundary re-raises it: a
        dead process performs no further I/O, so cleanup handlers
        (e.g. a ``rollback`` on the way out of ``define``) must not be
        able to append to the log either.
        """
        if self.crashed is not None:
            raise self.crashed
        count = self.visits.get(point, 0) + 1
        self.visits[point] = count
        target = self._armed.get(point)
        if target is not None and count == target:
            if before_crash is not None:
                before_crash()
            self.crashed = CrashPoint(point, count)
            raise self.crashed


#: Shared no-op injector for production code paths (never armed).
NO_FAULTS = FaultInjector()
