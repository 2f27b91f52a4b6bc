"""The durable store: snapshot + evolution log + recovery.

One directory holds the whole durable state of a schema manager:

    <dir>/snapshot.json   last checkpoint (the A.2 persistence format)
    <dir>/wal.log         evolution log since that checkpoint

:meth:`DurableStore.open` is the single entry point.  It loads the
snapshot (or starts a fresh model), scans the log, truncates any torn
tail, replays every *committed* session in log order, and resumes the
id counters from the last commit record — so recovery always lands on
exactly the state the committed sessions produced, which the
Consistency Control already proved consistent at each EES.  Each
replayed session advances the model's epoch, so a reopened model's
epoch is the number of sessions committed since the last checkpoint.

Replay folds each session's op records into one net delta and applies
it with one ``modify``; ``facts_replayed`` counts those net facts.  It
is idempotent: op records set fact membership (+ present, - absent),
so replaying a session whose effects are already in the snapshot —
possible when a crash hits between the checkpoint's rename and its log
reset — converges to the same state.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SessionError
from repro.datalog.plan import EngineStats
from repro.datalog.terms import Atom
from repro.gom.persistence import (
    decode_atom,
    encode_atom,
    load_from_file,
    save_to_file,
)
from repro.storage.faults import FaultInjector, NO_FAULTS
from repro.storage.wal import (
    WalRecord,
    WriteAheadLog,
    group_operations,
    read_log,
)

SNAPSHOT_NAME = "snapshot.json"
LOG_NAME = "wal.log"
#: Per-shard durable directories under a farm root: each shard owns a
#: complete snapshot + WAL layout of its own, so shards recover — and
#: crash — independently.
SHARD_DIR_FORMAT = "shard-%03d"


def shard_directory(root: str, shard: int) -> str:
    """The durable directory of one farm shard under *root*."""
    return os.path.join(root, SHARD_DIR_FORMAT % shard)


@dataclass
class RecoveryReport:
    """What :meth:`DurableStore.open` found and did."""

    directory: str
    snapshot_loaded: bool
    records_scanned: int
    torn_bytes_truncated: int
    sessions_replayed: int
    sessions_discarded: int
    facts_replayed: int
    replay_seconds: float
    #: Byte offset just past the last intact commit record (0 = none):
    #: where a replicated log's committed prefix ends.
    last_commit_offset: int = 0
    #: Engine counters of the replay itself (scans, invalidations, …).
    stats: Optional[EngineStats] = None

    def describe(self) -> str:
        source = "snapshot + log" if self.snapshot_loaded else "log only"
        return (
            f"recovered from {source} in {self.replay_seconds * 1000:.2f} ms: "
            f"{self.sessions_replayed} committed session(s) replayed "
            f"({self.facts_replayed} facts), "
            f"{self.sessions_discarded} uncommitted discarded, "
            f"{self.torn_bytes_truncated} torn byte(s) truncated"
        )


def replay_session(model, ops: Iterable[WalRecord],
                   commit: WalRecord) -> int:
    """Apply one committed session as one net delta; returns its size.

    The one replay step: recovery runs it per committed session in the
    log, a replica per shipped commit.  All records decode before the
    model is touched and fold into one membership per fact (the last op
    wins; within a record deletions precede additions, as in
    ``apply_delta``), so a session costs one ``modify`` — one
    maintenance pass on a warm model — and restarts the derived-delta
    accounting as BES does.  It resumes the id counters from the commit
    record and closes the session through
    :meth:`~repro.gom.model.GomDatabase.advance_epoch`, so the epoch of
    a recovered or replicated model is its committed-session count.
    """
    present: Dict[Atom, bool] = {}
    for record in ops:
        for item in record.payload.get("del", ()):
            present[decode_atom(item)] = False
        for item in record.payload.get("add", ()):
            present[decode_atom(item)] = True
    model.db.reset_derived_delta()
    model.modify(additions=[fact for fact, on in present.items() if on],
                 deletions=[fact for fact, on in present.items() if not on])
    for kind, next_number in commit.payload.get("next_ids", {}).items():
        model.ids.resume(kind, next_number)
    model.advance_epoch()
    return len(present)


class DurableStore:
    """Owns one durable directory and the log emission for its model.

    The Consistency Control calls :meth:`begin_session`,
    :meth:`log_operations`, :meth:`commit_session`, and
    :meth:`rollback_session` at the matching protocol moments; the
    store frames them into the evolution log.  Only the commit record
    is fsync'd — it is the durability point for the whole session.
    """

    def __init__(self, directory: str,
                 injector: FaultInjector = NO_FAULTS) -> None:
        self.directory = directory
        self.injector = injector
        self.snapshot_path = os.path.join(directory, SNAPSHOT_NAME)
        self.log_path = os.path.join(directory, LOG_NAME)
        self.wal = WriteAheadLog(self.log_path, injector=injector,
                                 on_write=self._count_write)
        self.model = None
        self.recovery: Optional[RecoveryReport] = None
        self._next_session = 1

    # -- opening / recovery ----------------------------------------------------

    @classmethod
    def open(cls, directory: str,
             features: Optional[Sequence[str]] = None,
             injector: FaultInjector = NO_FAULTS,
             obs=None) -> "DurableStore":
        """Open (creating if needed) the durable state under *directory*.

        *features* selects the feature modules of a **fresh** store; an
        existing snapshot knows its own features and wins.  *obs*
        attaches an observability bundle before recovery, so the replay
        itself is traced (one ``recovery.replay`` span with progress
        events) and metered.
        """
        from repro.gom.model import DEFAULT_FEATURES, GomDatabase

        store = cls(directory, injector=injector)
        os.makedirs(directory, exist_ok=True)
        started = time.perf_counter()
        snapshot_loaded = os.path.exists(store.snapshot_path)
        if snapshot_loaded:
            model = load_from_file(store.snapshot_path)
        else:
            model = GomDatabase(
                features=DEFAULT_FEATURES if features is None else features)
        if obs is not None:
            model.attach_obs(obs)
        obs = model.obs
        # A crash may leave the atomic writer's temp file behind; it is
        # either a duplicate of the snapshot or a torn draft — drop it.
        try:
            os.unlink(store.snapshot_path + ".tmp")
        except OSError:
            pass
        stats = model.db.begin_stats()
        scan = store.wal.open_for_append()
        facts = 0
        committed = group_operations(scan.records)
        replayed = len(committed)
        # Maintenance state (materialized views, provenance, session
        # deltas) is never persisted, so the model is cold here and the
        # engine invalidates instead of propagating: derived predicates
        # are rebuilt lazily, once, on the first read after recovery.
        span = obs.span("recovery.replay", records=len(scan.records),
                        commits=len(committed),
                        torn_bytes=scan.torn_bytes)
        with span:
            for done, (_session, ops, commit) in enumerate(committed, 1):
                facts += replay_session(model, ops, commit)
                if obs.enabled and done % 100 == 0:
                    obs.tracer.event("recovery.progress",
                                     sessions=done, facts=facts)
            span.set("sessions_replayed", replayed)
            span.set("facts_replayed", facts)
        begun = {record.session for record in scan.records
                 if record.kind == "bes"}
        store._next_session = max((record.session for record in scan.records
                                   if record.session is not None),
                                  default=0) + 1
        stats.replay_sessions = replayed
        stats.replay_records = len(scan.records)
        stats.replay_seconds = time.perf_counter() - started
        stats.finish()
        # Leave a fresh instrumentation context for ordinary use; the
        # replay counters stay reachable through the recovery report.
        model.db.begin_stats()
        store.model = model
        model.durability = store
        store.recovery = RecoveryReport(
            directory=directory,
            snapshot_loaded=snapshot_loaded,
            records_scanned=len(scan.records),
            torn_bytes_truncated=scan.torn_bytes,
            sessions_replayed=replayed,
            sessions_discarded=len(begun) - replayed,
            facts_replayed=facts,
            replay_seconds=stats.replay_seconds,
            last_commit_offset=committed[-1][2].end_offset if committed
            else 0,
            stats=stats,
        )
        return store

    # -- log emission (called by the Consistency Control) ----------------------

    def begin_session(self, check_mode: str) -> int:
        """BES: open a logged session, returning its log session id."""
        session = self._next_session
        self._next_session += 1
        self.wal.append({"type": "bes", "session": session,
                         "mode": check_mode})
        return session

    def log_operations(self, session: int, additions: Sequence[Atom],
                       deletions: Sequence[Atom]) -> None:
        """One primitive modification: the applied +/- delta."""
        payload = {"type": "op", "session": session}
        if additions:
            payload["add"] = [encode_atom(fact) for fact in additions]
        if deletions:
            payload["del"] = [encode_atom(fact) for fact in deletions]
        self.wal.append(payload)

    def commit_session(self, session: int) -> None:
        """EES (success): the fsync'd durability point of the session."""
        self.wal.append({"type": "commit", "session": session,
                         "next_ids": self.model.ids.next_numbers()},
                        sync=True)

    def rollback_session(self, session: int) -> None:
        """EES (undo): mark every record of the session void."""
        self.wal.append({"type": "rollback", "session": session})

    def annotate(self, session: int, text: str) -> None:
        """A free-form history note (protocol steps, chosen repairs)."""
        self.wal.append({"type": "note", "session": session, "text": text})

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Fold the log into a fresh atomic snapshot and reset the log.

        Refused while a session is open: the in-memory model then holds
        uncommitted effects that must not reach a snapshot.  A crash
        between the snapshot rename and the log reset merely replays
        the (idempotent) log onto the new snapshot at the next open.
        """
        active = getattr(self.model, "active_session", None)
        if active is not None and active.active:
            raise SessionError(
                "cannot checkpoint while an evolution session is open")
        self.injector.fire("checkpoint.before_snapshot")
        save_to_file(self.model, self.snapshot_path, injector=self.injector)
        self.injector.fire("checkpoint.before_wal_reset")
        self.wal.reset()
        self.injector.fire("checkpoint.after_wal_reset")

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the log (the store object stays reopenable)."""
        if not self.wal.closed:
            self.wal.sync()
            self.wal.close()
        if self.model is not None and \
                getattr(self.model, "durability", None) is self:
            self.model.durability = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- instrumentation -------------------------------------------------------

    def _count_write(self, records: int, nbytes: int, fsyncs: int,
                     fsync_seconds: float = 0.0) -> None:
        model = self.model
        if model is None:
            return
        stats = model.db.stats
        stats.wal_records += records
        stats.wal_bytes += nbytes
        stats.wal_fsyncs += fsyncs
        obs = model.obs
        if obs.enabled:
            if nbytes:
                obs.metrics.counter("wal.bytes_written").inc(nbytes)
            if fsyncs:
                obs.metrics.histogram("wal.fsync_ms").observe(
                    fsync_seconds * 1000.0)

    def log_records(self) -> List[Tuple[str, Optional[int]]]:
        """(kind, session) of every intact record — the session history."""
        return [(record.kind, record.session)
                for record in read_log(self.log_path).records]
