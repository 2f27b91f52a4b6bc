"""What the five workloads share: sizing, the base schema, instrumentation.

A workload object is one set-up system.  Its constructor *is* the
set-up the harness times (open, base schema, population, warm-up ops,
one full check); ``run(op)`` executes one operation of the seeded list
``plan(seed, count, scale)`` and returns ``(seconds, ok)``.
"""

import os
import random
import shutil
import time
from collections import Counter, defaultdict

from repro.manager import SchemaManager
from repro.obs import Observability
from repro.service.stress import edb_digest
from repro.storage.store import LOG_NAME, SNAPSHOT_NAME
from repro.workloads.synthetic import (
    EVOLUTION_KINDS,
    SyntheticSchema,
    generate_schema,
    random_evolution,
)

from spans import OpClock

#: EngineStats fields summed over the sessions of a traced run.
STAT_FIELDS = ("facts_scanned", "index_lookups", "join_tuples",
               "maint_deleted", "maint_rederived", "plans_compiled",
               "plan_cache_hits", "delta_fallbacks", "violations_found",
               "wal_records", "wal_bytes", "wal_fsyncs")


#: The base schema is a fixture, the same for every ``--seed``.
BASE_SEED = 1993


def seeded_plan(label, seed, canonical, group=lambda op: None):
    """Turn a canonical op list into the list for *seed*.

    Every op is ``(fixed..., payload)``.  The canonical payloads are
    drawn from a generator that ignores the seed; the seed shuffles them
    among the ops of one *group* and appends a per-op name seed.  So
    every seed runs the same multiset of work in another order under
    other names: run-to-run differences are the system's, not the luck
    of which targets a seed happened to draw.
    """
    rng = random.Random(f"{label}:{seed}")
    members = defaultdict(list)
    for position, op in enumerate(canonical):
        members[group(op)].append(position)
    ops = list(canonical)
    for positions in members.values():
        payloads = [canonical[position][-1] for position in positions]
        rng.shuffle(payloads)
        for position, payload in zip(positions, payloads):
            ops[position] = (*canonical[position][:-1], payload)
    return [(*op, rng.getrandbits(32)) for op in ops]


def evolution_draw(master):
    """Canonical payload of one base primitive: (kind, target pick)."""
    return (EVOLUTION_KINDS[master.randrange(len(EVOLUTION_KINDS))],
            master.random())


def pick(items, fraction):
    """The item a pick in [0, 1) names in a population fixed at set-up."""
    return items[int(fraction * len(items))]


def sized(full, scale, floor):
    """A population size: *full* at scale >= 1, shrunk (not below *floor*)
    for the small-scale self-tests.  Longer runs add ops, not data."""
    return max(floor, round(full * min(1.0, scale)))


class Workload:
    """Interface the harness drives; see the module docstring.

    Besides what is defined here a workload has ``plan``, ``run``,
    ``verify`` (end-of-run checks, name -> passed), ``digest``,
    ``close``, ``recovered_digest(directory)`` (re-open, digest, close)
    and ``probe`` (end-of-run per-layer probes of a traced run, name ->
    value; it leaves the system closed).
    """

    name = ""
    #: Ops in the measured phase at ``--scale 1 --seconds 10``.
    BASE_OPS = 0

    def __init__(self, directory, seed, scale, spans, traced=False):
        self.directory = directory
        self.seed = seed
        self.scale = scale
        self.spans = spans
        self.traced = traced
        self.clock = OpClock(spans)
        #: Plain counts feeding the per-layer metrics of a traced run.
        self.counts = Counter()
        #: Latencies (s) of the ops that were evolution sessions.
        self.session_seconds = []

    def begin_measuring(self):
        """Set-up is over: what it counted is kept aside, the measured
        phase counts from zero."""
        self.setup_counts = Counter(self.counts)
        self.counts.clear()
        self.session_seconds.clear()

    def node_pids(self):
        """Process ids of node processes (besides the client's own)."""
        return []

    def layer_split(self):
        """Seconds to move between layers, from counters the nodes kept
        themselves: {(from_layer, to_layer): seconds}."""
        return {}


class ManagerWorkload(Workload):
    """A workload on one durable in-process :class:`SchemaManager`."""

    def open_manager(self):
        obs = Observability.create(trace=True, metrics=True) \
            if self.traced else None
        self.manager = SchemaManager.open(self.directory, obs=obs)
        spans, manager = self.spans, self.manager
        model = manager.model
        spans.wrap(model, "modify", "datalog.maintain")
        spans.wrap(model.db, "materialize", "datalog.materialize")
        spans.wrap(model.checker, "check_delta", "datalog.check_delta")
        spans.wrap(model.repairer, "repairs", "datalog.repair", value=len)
        spans.wrap(model, "publish_snapshot", "gom.publish")
        spans.wrap(manager.store, "log_operations", "storage.log_ops")
        spans.wrap(manager.store, "commit_session", "storage.commit_fsync")
        spans.wrap(manager.runtime.migrations, "touch",
                   "runtime.touch_convert", value=bool)
        return manager

    def base_schema(self):
        """The synthetic base, committed through a full EES check so it
        is in the log (an unchecked generate would be lost on recovery)."""
        schema = generate_schema(self.manager, sized(300, self.scale, 30),
                                 seed=BASE_SEED, name="Base", check=True)
        #: Targets of base primitives: the set-up types, never the ones
        #: the primitives add, so a pick means the same type all run.
        self.base_types = list(schema.type_ids)
        return schema

    def evolve_base(self, session, rng, draw, types=None):
        """One ``random_evolution`` step of *draw*'s kind on its target."""
        kind, fraction = draw
        target = pick(self.base_types if types is None else types, fraction)
        random_evolution(self.only(target), session, rng, kind=kind)

    def only(self, *type_ids, decl_ids=()):
        """A view of the base schema that offers just these targets."""
        return SyntheticSchema(manager=self.manager, sid=self.schema.sid,
                               type_ids=list(type_ids),
                               decl_ids=list(decl_ids))

    def begin_measuring(self):
        super().begin_measuring()
        # Program spans of set-up are not the measured phase's.
        self.setup_program_spans = len(self.manager.obs.tracer.spans())

    def begin(self):
        with self.spans.span("control.begin"):
            session = self.manager.begin_session()
        if self.traced:
            self.counts["lock_wait_s"] += session.lock_wait_seconds
        return session

    def absorb_session_stats(self):
        stats = self.manager.last_session_stats()
        for field in STAT_FIELDS:
            self.counts[field] += getattr(stats, field)

    # -- what the harness asks after the measured phase ------------------------

    def digest(self):
        return edb_digest(self.manager.model.db)

    def close(self):
        self.manager.close()

    @classmethod
    def recovered_digest(cls, directory):
        with SchemaManager.open(directory) as manager:
            return edb_digest(manager.model.db)

    def durable(self):
        """Acknowledged commits survive losing everything not fsync'd.

        Copy the directory while the manager is open, cut the copy's
        log at the durable offset (a kill would keep the OS cache; the
        truncation is what discards unflushed bytes), open the copy: it
        must hold exactly the last committed state.
        """
        copy = self.directory + ".crash"
        shutil.copytree(self.directory, copy)
        try:
            with open(os.path.join(copy, LOG_NAME), "r+b") as handle:
                handle.truncate(self.manager.store.wal.durable_offset)
            return self.recovered_digest(copy) == self.digest()
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    def verify(self):
        return {"final_check": self.manager.check().consistent,
                "durability": self.durable()}

    def probe(self):
        manager = self.manager
        probes = {}
        started = time.perf_counter()
        manager.check()
        probes["datalog.check_full_ms"] = _ms_since(started)
        started = time.perf_counter()
        self.digest()
        probes["gom.digest_ms"] = _ms_since(started)
        probes["datalog.edb_facts_end"] = sum(
            1 for _ in manager.model.db.edb.all_facts())
        probes["runtime.debt_end"] = manager.migrations.debt()
        probes["program_spans"] = (len(manager.obs.tracer.spans())
                                   - self.setup_program_spans)
        manager.close()
        # One re-open for the replay numbers, one checkpoint after it.
        started = time.perf_counter()
        with SchemaManager.open(self.directory) as reopened:
            probes["storage.recovery_ms"] = _ms_since(started)
            probes["storage.replay_sessions"] = \
                reopened.recovery.sessions_replayed
            started = time.perf_counter()
            reopened.checkpoint()
            probes["storage.checkpoint_ms"] = _ms_since(started)
        probes["storage.snapshot_bytes"] = os.path.getsize(
            os.path.join(self.directory, SNAPSHOT_NAME))
        return probes


def _ms_since(started):
    return (time.perf_counter() - started) * 1000.0
