"""The :class:`SchemaManager` facade — the whole of Figure 1 in one object.

Wires together the Database Model (:class:`GomDatabase`), the Analyzer,
the Runtime System (with its conversion routines), and the Consistency
Control protocol, registering both explainers on every session.

    >>> manager = SchemaManager()
    >>> manager.define('''
    ... schema S is
    ... type T is [ x: int; ] end type T;
    ... end schema S;
    ... ''')
    >>> obj = manager.runtime.create_object("T", {"x": 1})
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import SessionError
from repro.gom.model import DEFAULT_FEATURES, GomDatabase
from repro.obs import Observability, NOOP_OBS
from repro.analyzer.analyzer import Analyzer
from repro.analyzer.translator import TranslationResult
from repro.control.protocol import (
    ProtocolResult,
    RepairChooser,
    SchemaEvolutionProtocol,
    choose_first,
)
from repro.control.session import EvolutionSession, SessionReport
from repro.datalog.checker import CheckReport
from repro.datalog.plan import EngineStats
from repro.runtime.conversion import ConversionRoutines
from repro.runtime.objects import RuntimeSystem

# Importing the namespaces module registers the Appendix-A feature.
import repro.analyzer.namespaces  # noqa: F401  (feature registration)


class SchemaManager:
    """A complete, customizable schema manager for GOM."""

    def __init__(self, features: Sequence[str] = DEFAULT_FEATURES,
                 record_dynamic_calls: bool = True,
                 model: Optional[GomDatabase] = None,
                 maintenance: str = "delta",
                 obs: Optional[Observability] = None,
                 trace=None, profile=None,
                 executor: str = "compiled") -> None:
        """*maintenance* selects the engine's derived-predicate strategy
        when a fresh model is built: ``"delta"`` (incremental view
        maintenance, the default) or ``"recompute"`` (clear-and-recompute
        reference, kept for the oracles).  Ignored when *model* is
        supplied — the model's engine keeps its own setting.

        *executor* selects the join executor of a fresh model's engine:
        ``"compiled"`` plan closures (the default) or the
        ``"interpreted"`` reference the differential oracles compare
        against.  Also ignored when *model* is supplied.

        Observability: pass a pre-built :class:`repro.obs.Observability`
        as *obs*, or use the switches — ``trace=True`` keeps spans in
        memory, ``trace="path.jsonl"`` streams them as JSONL,
        ``profile=True`` (or a directory) adds per-session cProfile.
        Either way a metrics registry rides along; everything defaults
        to the zero-overhead no-op bundle."""
        if obs is None and (trace or profile):
            obs = Observability.create(trace=trace, profile=profile)
        self.obs = obs if obs is not None else NOOP_OBS
        self.model = model if model is not None \
            else GomDatabase(features=features, maintenance=maintenance,
                             obs=self.obs, executor=executor)
        if model is not None and obs is not None:
            self.model.attach_obs(obs)
        elif model is not None:
            self.obs = self.model.obs
        self.analyzer = Analyzer(self.model,
                                 record_dynamic_calls=record_dynamic_calls)
        self.runtime = RuntimeSystem(self.model)
        self.conversions = ConversionRoutines(self.runtime)
        #: Durable backing (evolution log + snapshots), set by :meth:`open`.
        self.store = None

    # -- persistence (Appendix A.2: schemas are always persistent) -----------

    def save(self, path: str) -> None:
        """Persist the whole Database Model to *path* (JSON).

        Stored objects are schema-level state only; runtime objects are
        transient in this reproduction (their layouts — PhRep/Slot — are
        persisted with the model).
        """
        from repro.gom.persistence import save_to_file
        save_to_file(self.model, path)

    @classmethod
    def load(cls, path: str,
             record_dynamic_calls: bool = True) -> "SchemaManager":
        """Re-assemble a manager around a persisted Database Model."""
        from repro.gom.persistence import load_from_file
        return cls(model=load_from_file(path),
                   record_dynamic_calls=record_dynamic_calls)

    # -- durability (write-ahead evolution log + snapshots) -------------------

    @classmethod
    def open(cls, directory: str,
             features: Optional[Sequence[str]] = None,
             record_dynamic_calls: bool = True,
             injector=None,
             obs: Optional[Observability] = None,
             trace=None, profile=None) -> "SchemaManager":
        """Open (or create) a crash-safe manager rooted at *directory*.

        The directory holds a snapshot plus a write-ahead evolution log;
        opening recovers: the latest snapshot is loaded, torn log tails
        are truncated, and every *committed* session since the snapshot
        is replayed, so the result is exactly the committed-session
        state.  Every subsequent evolution session is logged (one record
        per primitive, an fsync'd commit record at EES), making session
        atomicity hold across process crashes.

        *features* only applies to a brand-new directory — an existing
        snapshot knows its own.  *injector* threads a
        :class:`repro.storage.faults.FaultInjector` through every
        write/fsync/rename boundary (tests only).

        Use as a context manager, and :meth:`checkpoint` periodically
        to fold the log into a fresh snapshot::

            with SchemaManager.open("/var/lib/gom") as manager:
                manager.define(...)
                manager.checkpoint()
        """
        from repro.storage.faults import NO_FAULTS
        from repro.storage.store import DurableStore
        if obs is None and (trace or profile):
            obs = Observability.create(trace=trace, profile=profile)
        store = DurableStore.open(
            directory, features=features,
            injector=NO_FAULTS if injector is None else injector,
            obs=obs)
        manager = cls(model=store.model,
                      record_dynamic_calls=record_dynamic_calls)
        manager.store = store
        return manager

    @classmethod
    def open_farm(cls, directory: str, shards: Optional[int] = None,
                  features: Optional[Sequence[str]] = None):
        """Open (or create) a multi-process shard farm at *directory*.

        Scale-out past the single writer lock: one durable manager
        *process* per shard, schemas routed to shards by their root
        name, and cross-shard imports resolved by snapshot exchange.
        Returns a :class:`repro.farm.SchemaFarm`; see that module for
        the client surface (``read`` / ``submit`` / ``batch`` /
        ``import_schema`` / ``digests``)::

            with SchemaManager.open_farm("/var/lib/gom-farm",
                                         shards=8) as farm:
                farm.define("schema Tenant0 is ... end schema Tenant0;")
        """
        from repro.farm import SchemaFarm
        return SchemaFarm.open(directory, shards=shards, features=features)

    @property
    def recovery(self):
        """The :class:`RecoveryReport` of :meth:`open` (None if not durable)."""
        return self.store.recovery if self.store is not None else None

    def checkpoint(self) -> None:
        """Write an atomic snapshot and reset the evolution log.

        Refused while an evolution session is open (the model would
        contain uncommitted effects).
        """
        if self.store is None:
            raise SessionError(
                "checkpoint requires a durable manager; use "
                "SchemaManager.open(directory)")
        self.store.checkpoint()

    def close(self) -> None:
        """Flush and close the durable backing (no-op when in-memory)."""
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "SchemaManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions ---------------------------------------------------------------

    def begin_session(self, check_mode: str = "delta") -> EvolutionSession:
        """BES, with both the Analyzer and Runtime explainers registered."""
        session = self.analyzer.begin_session(check_mode=check_mode)
        session.register_explainer(self.runtime.explainer)
        return session

    # -- one-shot definition --------------------------------------------------------

    def define(self, source: str, check_mode: str = "delta"
               ) -> TranslationResult:
        """Define schemas from source in one consistent evolution session.

        Raises :class:`repro.errors.InconsistentSchemaError` (and rolls
        back) when the result would be inconsistent.
        """
        session = self.begin_session(check_mode=check_mode)
        try:
            result = self.analyzer.define(session, source)
            session.commit()
        except Exception:
            if session.active:
                session.rollback()
            raise
        return result

    # -- the evolution protocol --------------------------------------------------------

    def evolve(self, changes: Callable[[EvolutionSession], None],
               chooser: RepairChooser = choose_first,
               check_mode: str = "delta") -> ProtocolResult:
        """Run the nine-step schema evolution protocol of §3.5."""
        session = self.begin_session(check_mode=check_mode)
        protocol = SchemaEvolutionProtocol(session, chooser=chooser)
        return protocol.run(changes)

    # -- online migration --------------------------------------------------------------

    @property
    def migrations(self):
        """The runtime's :class:`~repro.runtime.migration.MigrationEngine`.

        Lazy conversion for large bases: ``migrations.add_slot`` /
        ``delete_slot`` register pending migrations (O(1) in the
        instance count) instead of converting eagerly, objects convert
        on first touch, and ``migrations.background()`` drains the
        remainder in throttled batches.
        """
        return self.runtime.migrations

    def advise(self, session: Optional[EvolutionSession] = None):
        """Evolution impact report for an open session's net delta.

        Call before EES: reports, per added/removed attribute, the
        instance counts across the subtype cone, the methods whose code
        requires the attribute, and the cure options (eager-convert vs
        lazy-convert vs mask) ranked by cost.  Defaults to the model's
        active session.
        """
        if session is None:
            session = self.model.active_session
        if session is None or not session.active:
            raise SessionError(
                "advise needs an open evolution session — begin one and "
                "apply the schema changes first")
        return self.runtime.migrations.advise(session)

    # -- checking ------------------------------------------------------------------------

    def check(self) -> CheckReport:
        """A full consistency check of the current database model."""
        return self.model.check()

    # -- concurrent reading ----------------------------------------------------------------

    def serve(self, readers: int = 4):
        """A :class:`repro.service.SchemaService` over this manager.

        Enables snapshot publication on the model (every successful EES
        publishes a fresh immutable snapshot) and starts a pool of
        *readers* threads serving lock-free read sessions from it.
        """
        from repro.service import SchemaService
        return SchemaService(self, readers=readers)

    def snapshot(self):
        """The current published :class:`~repro.gom.model.SchemaSnapshot`.

        Enables snapshot publication on first use.  Lock-free: callers
        on any thread get the image of the last committed session.
        """
        return self.model.snapshot()

    # -- instrumentation -----------------------------------------------------------------

    def last_session_stats(self) -> Optional[EngineStats]:
        """Engine statistics of the most recently ended evolution session.

        Counts what the deductive core actually did between BES and
        commit / rollback: facts scanned, index lookups, join tuples,
        plans compiled vs. reused, and per-constraint check time.  None
        until a session has ended.  Render with
        :meth:`EngineStats.describe` or inspect via
        :meth:`EngineStats.as_dict`.
        """
        return self.model.last_session_stats
