"""The online migration engine: lazy conversion at production scale.

The paper's conversion cure (§3.5) rewrites every instance *inside* the
evolution session — correct, but a stop-the-world migration that no
store survives once bases hold millions of objects.  The masking
machinery already hints at the alternative ("each object pays the
conversion cost on first touch only", :mod:`repro.runtime.handlers`);
this module generalizes it into a full migration engine, and is the one
conversion path: an eager cure (:mod:`repro.runtime.conversion`) is a
lazy cure whose cone is converted at once, in the same session.

* **Version-tagged objects** — every :class:`~repro.runtime.objects.
  GomObject` carries a ``schema_version`` stamped at creation.  A lazy
  cure no longer loops over instances: it registers a
  :class:`PendingMigration` (a per-attribute plan of
  :class:`SlotAction`\\ s) and bumps the type's current version, making
  the EES commit O(1) in the instance count.
* **Convert-on-touch** — the runtime's ``get_attr`` / ``set_attr`` /
  ``call`` entry points call :meth:`MigrationEngine.touch`, which
  detects a stale tag and replays the object's pending-migration chain
  before serving the access, recording one undo entry for the object's
  slots and tag, so touched-then-rolled-back sessions leave no residue.
* **A throttled background migrator** — :class:`BackgroundMigrator`
  drains the cold remainder in short writer-lock-holding batches
  (batch size + sleep budget, pause/resume), each batch a normal
  evolution session so WAL replay and snapshot readers compose with it.
* **An impact advisor** — :meth:`MigrationEngine.advise` queries
  ``PhRep`` / ``Slot`` / ``CodeReq*`` against an open session's net
  delta *before* EES, reporting affected methods, per-type instance
  counts and the migration debt each cure would create, ranking
  eager-convert vs mask vs lazy-convert by cost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import ConversionError
from repro.datalog.terms import Atom
from repro.gom.ids import Id
from repro.control.session import EvolutionSession
from repro.runtime.objects import _MISSING

#: Instance populations at or below this size are cheap enough to
#: convert eagerly inside the session; above it the advisor recommends
#: lazy conversion (the session must stay fast regardless of base size).
EAGER_THRESHOLD = 1024


class _Unmigrate:
    """A touch's one undo entry: the object's slots and version tag.

    *saved* holds flat ``(attr, previous value)`` pairs in write order;
    undoing them last-first restores each slot's pre-touch value.
    """

    __slots__ = ("engine", "obj", "version", "saved")

    def __init__(self, engine, obj) -> None:
        self.engine = engine
        self.obj = obj
        self.version = obj.schema_version
        self.saved: list = []

    def __call__(self) -> None:
        obj, saved = self.obj, self.saved
        for index in range(len(saved) - 2, -1, -2):
            if saved[index + 1] is _MISSING:
                obj.slots.pop(saved[index], None)
            else:
                obj.slots[saved[index]] = saved[index + 1]
        self.engine._move_debt_gauge(obj.schema_version - self.version)
        obj.schema_version = self.version


@dataclass(frozen=True)
class SlotAction:
    """One per-attribute step of a pending migration.

    ``kind`` is ``"add"`` (fill the slot from *source*, unless the
    object already holds a value and *overwrite* is off) or ``"drop"``
    (remove the slot value).  *source* follows
    :data:`repro.runtime.conversion.ValueSource`: a constant, a
    per-object callable, or — with *value_is_operation* — the name of an
    operation evaluated on the old instance.
    """

    kind: str
    attr: str
    source: object = None
    value_is_operation: bool = False
    overwrite: bool = False
    #: The attribute's domain, stamped when the step is registered.
    domain: Optional[Id] = None

    def changes(self, obj) -> bool:
        """Whether applying this action to *obj* changes its slots."""
        if self.kind == "drop":
            return self.attr in obj.slots
        return self.overwrite or self.attr not in obj.slots


@dataclass(frozen=True)
class PendingMigration:
    """One registered version step of a type: from → to, with a plan."""

    tid: Id
    from_version: int
    to_version: int
    actions: Tuple[SlotAction, ...]


class MigrationEngine:
    """Version tags, pending-migration chains, and the drain machinery."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.model = runtime.model
        #: Per-type chain of registered version steps.  Never compacted:
        #: an object's tag indexes into this chain, so resetting it
        #: would make old tags skip future steps silently.
        self._steps: Dict[Id, List[PendingMigration]] = {}
        #: Re-entrancy guard: migration plans may call operations or
        #: per-object callables that themselves touch the object.
        self._in_flight: Set[Id] = set()

    @property
    def obs(self):
        return self.model.db.obs

    # -- version tags ----------------------------------------------------------

    def version_of(self, tid: Id) -> int:
        """The current migration version of *tid* (new objects start here)."""
        return len(self._steps.get(tid, ()))

    def debt(self) -> int:
        """Objects still awaiting lazy conversion (the background debt)."""
        return sum(1 for _ in self.stale_objects())

    def stale_objects(self, limit: Optional[int] = None) -> List[object]:
        """Up to *limit* stale objects, in deterministic (tid, oid) order."""
        stale: List[object] = []
        for obj in self._iter_stale():
            stale.append(obj)
            if limit is not None and len(stale) >= limit:
                break
        return stale

    def _iter_stale(self) -> Iterator[object]:
        instances = self.runtime._instances_by_type
        # Key-function sorts: comparison sorting over Id.__lt__ builds
        # two sort keys per comparison and dominates large drains.
        for tid in sorted(self._steps, key=Id._sort_key):
            target = len(self._steps[tid])
            for oid in sorted(instances.get(tid, ()), key=Id._sort_key):
                obj = self.runtime._objects[oid]
                if obj.schema_version < target:
                    yield obj

    # -- registering cures ----------------------------------------------------

    def add_slot(self, type_ref, attr: str, source,
                 session: Optional[EvolutionSession] = None,
                 value_is_operation: bool = False,
                 overwrite: bool = False) -> int:
        """The lazy counterpart of :meth:`ConversionRoutines.add_slot`.

        Inserts the ``Slot`` fact for every representation in the
        subtype cone (so constraint (*) holds at EES) and registers a
        pending ``add`` step for every instantiated type — **no object
        is visited**.  Returns the migration debt created (instances
        that will convert on first touch or in the background drain).
        """
        with self.runtime.bracket(session) as active:
            return self._register_cure(
                active, self.runtime._resolve_type(type_ref),
                (SlotAction("add", attr, source, value_is_operation,
                            overwrite),))

    def delete_slot(self, type_ref, attr: str,
                    session: Optional[EvolutionSession] = None) -> int:
        """The lazy counterpart of :meth:`ConversionRoutines.delete_slot`.

        Removes the ``Slot`` facts across the subtype cone, unregisters
        any masking handlers for the attribute (with a session undo),
        and registers a pending ``drop`` step per instantiated type.
        Returns the migration debt created.
        """
        with self.runtime.bracket(session) as active:
            return self._register_cure(
                active, self.runtime._resolve_type(type_ref),
                (SlotAction("drop", attr),))

    def _register_cure(self, session: EvolutionSession, tid: Id,
                       actions: Tuple[SlotAction, ...]) -> int:
        """Register one step of *actions* on *tid*'s subtype cone.

        The one registration of both cures: it validates every action
        before it changes anything (the attribute must exist, a constant
        value must conform to its domain), keeps the cone's ``Slot``
        facts, handlers and deferred masked slots in line with the
        actions, and appends the step to every instantiated type's
        chain.  Returns the migration debt created.
        """
        runtime = self.runtime
        attrs = dict(self.model.attributes(tid, inherited=True))
        stamped = []
        for act in actions:
            if act.kind == "add":
                if act.attr not in attrs:
                    raise ConversionError(
                        f"type {self.model.type_name(tid)!r} has no "
                        f"attribute {act.attr!r} — add the attribute "
                        f"before converting")
                if act.value_is_operation:
                    if not isinstance(act.source, str):
                        raise ConversionError(
                            "value_is_operation requires an operation name")
                elif not callable(act.source):
                    runtime._check_conforms(attrs[act.attr], act.source,
                                            act.attr)
                act = replace(act, domain=attrs[act.attr])
            stamped.append(act)
        for act in stamped:
            attr = act.attr
            if act.kind == "add":
                domain_rep = runtime._phrep_for_domain(session, act.domain)
                for clid in self._phreps_in_cone(tid):
                    fact = Atom("Slot", (clid, attr, domain_rep))
                    if not self.model.db.edb.contains(fact):
                        session.add(fact)
                continue
            for clid in self._phreps_in_cone(tid):
                for fact in list(self.model.db.matching(
                        Atom("Slot", (clid, attr, None)))):
                    session.remove(fact)
            registry = runtime.handlers
            for cone_tid in self._cone_types(tid):
                previous = registry.entry(cone_tid, attr)
                if any(entry is not None for entry in previous):
                    session.record_undo(
                        lambda t=cone_tid, a=attr, p=previous:
                        registry.restore(t, a, p))
                    registry.unregister(cone_tid, attr)
                deferred = runtime.undefer_masked_slot(cone_tid, attr)
                if deferred is not None:
                    session.record_undo(
                        lambda t=cone_tid, a=attr, d=deferred:
                        runtime.restore_deferred_slot(t, a, d))
        return sum(self._register_step(session, affected, tuple(stamped))
                   for affected in self._affected_types(tid))

    def _register_step(self, session: EvolutionSession, tid: Id,
                       actions: Tuple[SlotAction, ...]) -> int:
        chain = self._steps.setdefault(tid, [])
        step = PendingMigration(tid=tid, from_version=len(chain),
                                to_version=len(chain) + 1, actions=actions)
        chain.append(step)

        # Every live instance is stale by construction: all were stamped
        # at version <= from_version < to_version (a touch only reaches
        # the chain head, which this step just became), so the debt this
        # step creates is the instance count — no O(n) version scan.
        stale = len(self.runtime._instances_by_type.get(tid, ()))

        def undo(tid=tid, step=step):
            chain = self._steps.get(tid)
            if chain and chain[-1] is step:
                chain.pop()
                if not chain:
                    del self._steps[tid]
                self._move_debt_gauge(-stale)
        session.record_undo(undo)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("migration.registered").inc(stale)
        self._move_debt_gauge(stale)
        return stale

    def _move_debt_gauge(self, amount: int) -> None:
        """Move the ``migration.debt`` gauge by arithmetic.

        Telemetry must not do O(base) work, and :meth:`debt` scans every
        object.  The gauge is the balance of pending conversions in
        object-steps: a registered step owes one per instance, a
        conversion pays one per step it replays, each with the inverse
        in its undo; a background batch that finds nothing stale zeroes
        it, which also writes off stale objects that were deleted.
        """
        obs = self.obs
        if obs.enabled:
            gauge = obs.metrics.gauge("migration.debt")
            gauge.set(gauge.value + amount)

    def _cone_types(self, tid: Id) -> List[Id]:
        """*tid* and every subtype that has a representation or instances."""
        cone = {tid}
        for fact in self.model.db.matching(Atom("PhRep", (None, None))):
            other = fact.args[1]
            if other == tid or self.model.is_subtype(other, tid):
                cone.add(other)
        for other in self.runtime._instances_by_type:
            if other == tid or self.model.is_subtype(other, tid):
                cone.add(other)
        return sorted(cone)

    def _phreps_in_cone(self, tid: Id) -> List[Id]:
        clids = []
        for fact in self.model.db.matching(Atom("PhRep", (None, None))):
            clid, other = fact.args
            if other == tid or self.model.is_subtype(other, tid):
                clids.append(clid)
        return sorted(clids)

    def _affected_types(self, tid: Id) -> List[Id]:
        """Instantiated types whose objects the new step applies to."""
        return sorted(
            other for other in self.runtime._instances_by_type
            if other == tid or self.model.is_subtype(other, tid))

    # -- converting -----------------------------------------------------------

    def touch(self, obj) -> bool:
        """Bring *obj* up to its type's current version; True if converted.

        Replays the object's pending chain and records **one** undo
        entry on the open session that restores its slots and version
        tag together, so a touch inside a session that later rolls back
        leaves no residue.  A value source that raises (or yields a
        value outside the attribute's domain) leaves the object as it
        was, still stale.
        """
        steps = self._steps.get(obj.tid)
        if not steps or obj.schema_version >= len(steps) \
                or obj.oid in self._in_flight:
            return False
        self._in_flight.add(obj.oid)
        try:
            self._migrate(obj, steps)
        finally:
            self._in_flight.discard(obj.oid)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("migration.converted").inc()
        return True

    def _migrate(self, obj, steps: List[PendingMigration]) -> None:
        undo = _Unmigrate(self, obj)
        slots, saved = obj.slots, undo.saved
        try:
            for step in steps[undo.version:]:
                for act in step.actions:
                    attr = act.attr
                    if act.kind == "drop":
                        if attr in slots:
                            saved += (attr, slots.pop(attr))
                    elif act.overwrite or attr not in slots:
                        value = self._produce(obj, act)
                        saved += (attr, slots.get(attr, _MISSING))
                        slots[attr] = value
        except BaseException:
            undo()
            raise
        active = getattr(self.model, "active_session", None)
        if active is not None and active.active:
            undo.saved = tuple(saved)  # the compact form it is kept in
            active.record_undo(undo)
        self._move_debt_gauge(undo.version - len(steps))
        obj.schema_version = len(steps)

    def _produce(self, obj, act: SlotAction):
        """The value *act* stores on *obj*.

        A constant was checked against the domain when the step was
        registered; a callable's or an operation's value is checked
        here, before it is stored.
        """
        if act.value_is_operation:
            value = self.runtime.call(obj, act.source)
        elif callable(act.source):
            value = act.source(obj)
        else:
            return act.source
        self.runtime._check_conforms(act.domain, value, act.attr)
        return value

    def _convert_cone(self, tid: Id, actions: Tuple[SlotAction, ...]) -> int:
        """Convert every instance in *tid*'s cone now (the eager half of
        a cure); returns how many of their slots *actions* change."""
        runtime = self.runtime
        changed = 0
        for affected in self._affected_types(tid):
            for oid in sorted(runtime._instances_by_type.get(affected, ()),
                              key=Id._sort_key):
                obj = runtime._objects[oid]
                changed += sum(act.changes(obj) for act in actions)
                self.touch(obj)
        return changed

    # -- draining --------------------------------------------------------------

    def drain_in_session(self, session: EvolutionSession,
                         limit: Optional[int] = None) -> int:
        """Convert up to *limit* stale objects inside an open session."""
        converted = 0
        for obj in self.stale_objects(limit):
            if self.touch(obj):
                converted += 1
        return converted

    def background(self, batch_size: int = 256,
                   sleep_s: float = 0.0) -> "BackgroundMigrator":
        """A throttled :class:`BackgroundMigrator` over this engine."""
        return BackgroundMigrator(self, batch_size=batch_size,
                                  sleep_s=sleep_s)

    # -- the impact advisor ----------------------------------------------------

    def advise(self, session: EvolutionSession) -> "ImpactReport":
        """What the open session's schema delta will cost at runtime.

        Inspects the net delta for attribute additions and removals and
        reports, per affected attribute: instance counts across the
        subtype cone, how many objects actually need converting, the
        methods whose code requires the attribute (via ``CodeReqAttr``),
        and the cure options ranked by cost.
        """
        additions, deletions = session.net_delta()
        impacts: List[AttributeImpact] = []
        for change, facts in (("added", additions), ("removed", deletions)):
            for fact in facts:
                if fact.pred != "Attr":
                    continue
                tid, attr, _domain = fact.args
                impacts.append(self._impact(tid, attr, change))
        return ImpactReport(impacts=tuple(impacts),
                            migration_debt=self.debt())

    def _impact(self, tid: Id, attr: str, change: str) -> "AttributeImpact":
        objects = self.runtime.objects_of(tid, include_subtypes=True)
        instances = len(objects)
        if change == "added":
            pending = sum(1 for obj in objects if attr not in obj.slots)
        else:
            pending = sum(1 for obj in objects if attr in obj.slots)
        return AttributeImpact(
            type_name=self.model.type_name(tid) or repr(tid),
            attr=attr, change=change, instances=instances,
            pending=pending,
            affected_methods=self._affected_methods(tid, attr),
            options=self._options(change, pending))

    def _affected_methods(self, tid: Id, attr: str) -> Tuple[str, ...]:
        """``Type.operation`` names whose code requires (tid, attr)."""
        db = self.model.db
        if not db.is_base("CodeReqAttr"):
            return ()
        methods = set()
        for req in db.matching(Atom("CodeReqAttr", (None, None, attr))):
            codeid, req_tid, _attr = req.args
            if req_tid != tid and not self.model.is_subtype(req_tid, tid) \
                    and not self.model.is_subtype(tid, req_tid):
                continue
            for code in db.matching(Atom("Code", (codeid, None, None))):
                declid = code.args[2]
                for decl in db.matching(Atom("Decl",
                                             (declid, None, None, None))):
                    receiver, opname = decl.args[1], decl.args[2]
                    owner = self.model.type_name(receiver) or repr(receiver)
                    methods.add(f"{owner}.{opname}")
        return tuple(sorted(methods))

    def _options(self, change: str, pending: int) -> Tuple["CureOption", ...]:
        eager = CureOption(
            cure="eager-convert", session_work=pending, deferred_work=0,
            note="converts every instance inside the session")
        lazy = CureOption(
            cure="lazy-convert", session_work=0, deferred_work=pending,
            note="O(1) commit; instances convert on touch or in the "
                 "background drain")
        mask = CureOption(
            cure="mask", session_work=0, deferred_work=0,
            note="no conversion; every access pays the handler")
        if change == "removed":
            # Masking cannot hide values that must *disappear*.
            ranked = (lazy, eager) if pending > EAGER_THRESHOLD \
                else (eager, lazy)
        elif pending <= EAGER_THRESHOLD:
            ranked = (eager, lazy, mask)
        else:
            ranked = (lazy, mask, eager)
        return ranked


@dataclass(frozen=True)
class CureOption:
    """One cure, costed: work at EES vs work deferred to the drain."""

    cure: str
    session_work: int
    deferred_work: int
    note: str


@dataclass(frozen=True)
class AttributeImpact:
    """What one attribute addition/removal costs the object base."""

    type_name: str
    attr: str
    change: str
    #: Instances across the subtype cone.
    instances: int
    #: Instances that actually need converting (missing the slot for an
    #: addition; still holding it for a removal).
    pending: int
    affected_methods: Tuple[str, ...]
    #: Cure options, cheapest-overall first.
    options: Tuple[CureOption, ...]

    @property
    def recommended(self) -> CureOption:
        return self.options[0]


@dataclass(frozen=True)
class ImpactReport:
    """The advisor's answer: per-attribute impacts + current debt."""

    impacts: Tuple[AttributeImpact, ...]
    migration_debt: int

    def describe(self) -> str:
        if not self.impacts:
            return ("no attribute additions or removals in this session "
                    f"(current migration debt: {self.migration_debt})")
        lines = []
        for impact in self.impacts:
            lines.append(
                f"{impact.change} {impact.type_name}.{impact.attr}: "
                f"{impact.pending}/{impact.instances} instance(s) to "
                f"convert, {len(impact.affected_methods)} dependent "
                f"method(s)")
            for method in impact.affected_methods:
                lines.append(f"    requires: {method}")
            for option in impact.options:
                marker = "->" if option is impact.recommended else "  "
                lines.append(
                    f"  {marker} {option.cure}: {option.session_work} in "
                    f"session, {option.deferred_work} deferred — "
                    f"{option.note}")
        lines.append(f"current migration debt: {self.migration_debt}")
        return "\n".join(lines)


class BackgroundMigrator:
    """Drains migration debt in short writer-lock-holding batches.

    Each batch is one normal evolution session (label
    ``migration.batch``): it serializes with schema writers on the
    writer lock, coexists with :class:`~repro.service.SchemaService`
    snapshot readers (which never take the lock), and — on durable
    models — annotates the WAL, so a crash mid-drain loses at most the
    uncommitted batch and re-draining reconverges.
    """

    def __init__(self, engine: MigrationEngine, batch_size: int = 256,
                 sleep_s: float = 0.0) -> None:
        self.engine = engine
        self.batch_size = batch_size
        self.sleep_s = sleep_s
        self.converted = 0
        self.batches = 0
        self._stop = threading.Event()
        self._resume = threading.Event()
        self._resume.set()
        self._thread: Optional[threading.Thread] = None

    def run_once(self, batch_size: Optional[int] = None) -> int:
        """One batch: open a session, convert up to *batch_size*, commit.

        Returns the number of objects converted (0 = drained).  Opens
        its own session, so it must not run on a thread that already
        holds one open.
        """
        engine = self.engine
        size = batch_size or self.batch_size
        obs = engine.obs
        started = time.perf_counter()
        session = EvolutionSession(engine.model, label="migration.batch")
        try:
            converted = engine.drain_in_session(session, limit=size)
            if converted:
                session.annotate(f"migration.batch: {converted} object(s)")
                session.commit()
            else:
                session.rollback()
        except BaseException:
            if session.active:
                session.rollback()
            raise
        if converted:
            self.converted += converted
            self.batches += 1
            if obs.enabled:
                obs.metrics.counter("migration.batches").inc()
                obs.metrics.counter(
                    "migration.background_converted").inc(converted)
                obs.metrics.histogram("migration.batch_ms").observe(
                    (time.perf_counter() - started) * 1000.0)
        elif obs.enabled:
            obs.metrics.gauge("migration.debt").set(0)
        return converted

    def drain(self, max_batches: Optional[int] = None) -> int:
        """Run batches until the debt is zero (or stopped/capped)."""
        total = 0
        batches = 0
        while not self._stop.is_set():
            self._resume.wait()
            if self._stop.is_set():
                break
            converted = self.run_once()
            total += converted
            if converted == 0:
                break
            batches += 1
            if max_batches is not None and batches >= max_batches:
                break
            if self.sleep_s:
                time.sleep(self.sleep_s)
        return total

    # -- thread control --------------------------------------------------------

    def start(self) -> "BackgroundMigrator":
        """Drain on a daemon thread; pause/resume/stop control it."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self.drain, daemon=True,
                                        name="migration-drain")
        self._thread.start()
        return self

    def pause(self) -> None:
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()

    def stop(self) -> None:
        self._stop.set()
        self._resume.set()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
