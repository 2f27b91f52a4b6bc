"""farm_commit — the pipe-protocol stack.

Two shard worker processes, 100 four-type tenants, four cross-shard
imports.  Per five ops, in seeded order: four ``farm.session`` (one
``add_attribute``, delta mode) and one ``farm.read``; every 500th op is
a ``refresh_imports()``.  Per-shard databases are small, so the pipe
round-trip, worker dispatch and per-commit fixed costs carry the op and
Datalog is minor.
"""

import random
import time

from repro.farm import SchemaFarm
from repro.farm.farm import FarmError
from repro.fuzz.history import Op, SessionPlan

from workloads.common import STAT_FIELDS, Workload, seeded_plan, sized

SHARDS = 2
IMPORTS = 4
REFRESH_EVERY = 500
BASE_ATTRIBUTES = 3


def tenant_source(name):
    types = "\n".join(
        f"  type T{t}{name} is [ a : float; b : int; c : string; ] "
        f"end type T{t}{name};" for t in range(4))
    return (f"schema {name} is\npublic T0{name};\ninterface\n{types}\n"
            f"end schema {name};")


class FarmCommit(Workload):
    name = "farm_commit"
    BASE_OPS = 3000

    @staticmethod
    def tenants(scale):
        return [f"Tenant{i}" for i in range(sized(100, scale, 8))]

    @classmethod
    def plan(cls, seed, count, scale):
        """Op = (kind, position, tenant) for "session" and "read" (the
        position numbers a session's new attribute), ("refresh", None,
        None); each with a name seed.  The order of kinds is the same
        for every seed."""
        master = random.Random("farm_commit")
        names = cls.tenants(scale)
        block = ["session"] * 4 + ["read"]
        canonical = []
        while len(canonical) < count:
            master.shuffle(block)
            for kind in block:
                if len(canonical) % REFRESH_EVERY == REFRESH_EVERY - 1:
                    canonical.append(("refresh", None, None))
                canonical.append((kind, len(canonical),
                                  master.choice(names)))
        return seeded_plan("farm_commit", seed, canonical[:count],
                           group=lambda op: op[0])

    def __init__(self, directory, seed, scale, spans, traced=False):
        super().__init__(directory, seed, scale, spans, traced)
        self.farm = farm = SchemaFarm.open(directory, shards=SHARDS)
        try:
            names = self.tenants(scale)
            for name in names:
                farm.define(tenant_source(name))
                farm.bind(name, f"base:{name}", {
                    "kind": "type", "name": f"T0{name}", "schema": name})
            imports = 0
            for importer, imported in zip(names, names[len(names) // 2:]):
                if imports == IMPORTS:
                    break
                if farm.shard_of(importer) != farm.shard_of(imported):
                    farm.import_schema(importer, imported)
                    imports += 1
            if any(farm.check_all().values()):
                raise RuntimeError("farm_commit: inconsistent after set-up")
        except BaseException:
            farm.close()
            raise
        #: Attributes each tenant's base type must show on a read.
        self.attributes = dict.fromkeys(names, BASE_ATTRIBUTES)
        spans.wrap(farm, "session", "farm.session_rtt")
        spans.wrap(farm, "read", "farm.read_rtt")
        spans.wrap(farm, "refresh_imports", "farm.import_refresh")
        self.rollup_at_setup = farm.metrics_rollup() if traced else None

    def node_pids(self):
        return [self.farm.request(shard, {"kind": "ping"})["pid"]
                for shard in range(self.farm.shards)]

    def run(self, op):
        farm = self.farm
        kind, number, tenant, _name_seed = op
        with self.clock as clock:
            try:
                if kind == "session":
                    reply = farm.session(tenant, SessionPlan(ops=[Op(
                        "add_attribute", {"type": f"base:{tenant}",
                                          "name": f"x{number}",
                                          "domain": "builtin:float"})]))
                    ok = bool(reply.get("committed"))
                elif kind == "read":
                    result, _epoch = farm.read(tenant, "attributes",
                                               type=f"T0{tenant}")
                    ok = len(result) == self.attributes[tenant]
                else:
                    farm.refresh_imports()
                    ok = True
            except FarmError:
                return clock.seconds, False
        if kind == "session":
            self.session_seconds.append(clock.seconds)
            if ok:
                self.attributes[tenant] += 1
                self.counts["commits"] += 1
        return clock.seconds, ok

    # -- after the measured phase ----------------------------------------------

    def digest(self):
        return self.farm.digests()

    def verify(self):
        return {"check_all": not any(self.farm.check_all().values())}

    def close(self):
        self.farm.close()

    @classmethod
    def recovered_digest(cls, directory):
        with SchemaFarm.open(directory) as farm:
            return farm.digests()

    # -- traced run: what the workers counted themselves -----------------------

    def rollup_delta(self):
        """Worker metrics accumulated since set-up: counters by name and
        histogram (count, sum) by name."""
        before, after = self.rollup_at_setup, self.farm.metrics_rollup()
        counters = {name: value - before["counters"].get(name, 0)
                    for name, value in after["counters"].items()}
        sums = {}
        for name, entry in after["histograms"].items():
            earlier = before["histograms"].get(name, {})
            sums[name] = (entry["count"] - earlier.get("count", 0),
                          entry["sum"] - earlier.get("sum", 0.0))
        return counters, sums

    def probe(self):
        farm = self.farm
        counters, sums = self.rollup_delta()
        self.worker_sums = sums
        for field in STAT_FIELDS:
            self.counts[field] = counters.get(f"engine.{field}", 0)
        sessions, session_ms = sums.get("session.elapsed_ms", (0, 0.0))
        probes = {
            "farm.worker_session_ms": session_ms / sessions if sessions
            else 0.0,
            "farm.sessions_committed":
                counters.get("farm.sessions_committed", 0),
        }
        farm.close()
        started = time.perf_counter()
        with SchemaFarm.open(self.directory) as reopened:
            probes["storage.recovery_ms"] = \
                (time.perf_counter() - started) * 1000.0
            probes["storage.replay_sessions"] = sum(
                report["sessions_replayed"]
                for report in reopened.recovery_reports().values())
            started = time.perf_counter()
            reopened.checkpoint_all()
            probes["storage.checkpoint_ms"] = \
                (time.perf_counter() - started) * 1000.0
        return probes

    def layer_split(self):
        """Split the client's round-trip time by what the workers timed:
        maintenance and constraint checks are Datalog's, fsync is
        storage's, the rest of the worker's session is the Consistency
        Control's; what remains of the round trip is the farm's own."""
        sums = self.worker_sums
        seconds = {name: sums.get(name, (0, 0.0))[1] / 1000.0
                   for name in ("session.elapsed_ms", "engine.maint_ms",
                                "check.constraint_ms", "wal.fsync_ms")}
        datalog = seconds["engine.maint_ms"] + seconds["check.constraint_ms"]
        storage = seconds["wal.fsync_ms"]
        control = max(0.0, seconds["session.elapsed_ms"] - datalog - storage)
        return {("farm", "datalog"): datalog, ("farm", "storage"): storage,
                ("farm", "control"): control}
