"""read_under_churn — snapshot reads and object access beside writes.

Per 100 ops, in seeded order: 59 schema reads through the service (six
types each), 40 object ops on a Car (two ``get_attr`` including the
newest lazily added slot, one dynamically dispatched
``changeLocation``), 1 write session (one base primitive plus
``add_attribute`` on Car cured lazily; every tenth write also drains
256 stale objects).  Read queries, service dispatch and convert-on-
touch carry the op; every write pays a snapshot publish and the reads
after it pay the copy-on-write.
"""

import random
import time

from repro.errors import ReproError
from repro.gom.builtins import builtin_type
from repro.workloads.carschema import CAR_SCHEMA_SOURCE

from workloads.common import (
    ManagerWorkload,
    evolution_draw,
    pick,
    seeded_plan,
    sized,
)

READS, OBJECT_OPS, WRITES = 59, 40, 1
TYPES_PER_READ = 6
DRAIN_EVERY = 10
DRAIN_LIMIT = 256
#: Every SAMPLE_EVERY-th schema read is compared with the live model.
SAMPLE_EVERY = 100


def read_bundle(reader, tids):
    """The schema read: four lookups on each of six types."""
    return [(reader.type_name(tid),
             reader.attributes(tid, inherited=True),
             reader.supertypes(tid, transitive=True),
             reader.declarations(tid, inherited=True)) for tid in tids]


class ReadUnderChurn(ManagerWorkload):
    name = "read_under_churn"
    BASE_OPS = 19000
    #: Warm-up ops run in set-up: one full block of the mix, twice.
    WARM_OPS = 200

    @staticmethod
    def plan(seed, count, scale, first_write=0):
        """Op = ("read", None, six type picks) | ("object", None, (car
        pick, city pick)) | ("write", number, base primitive), each with
        a name seed; the order of kinds is the same for every seed."""
        master = random.Random(f"read_under_churn:{first_write}")
        block = ["read"] * READS + ["object"] * OBJECT_OPS + ["write"] * WRITES
        canonical, writes = [], first_write
        while len(canonical) < count:
            master.shuffle(block)
            for kind in block:
                if kind == "read":
                    canonical.append(("read", None, tuple(
                        master.random() for _ in range(TYPES_PER_READ))))
                elif kind == "object":
                    canonical.append(("object", None, (master.random(),
                                                       master.random())))
                else:
                    canonical.append(("write", writes,
                                      evolution_draw(master)))
                    writes += 1
        return seeded_plan(f"read_under_churn:{first_write}", seed,
                           canonical[:count], group=lambda op: op[0])

    def __init__(self, directory, seed, scale, spans, traced=False):
        super().__init__(directory, seed, scale, spans, traced)
        manager = self.open_manager()
        self.schema = self.base_schema()
        manager.define(CAR_SCHEMA_SOURCE)
        self.populate()
        self.service = manager.serve(readers=1)
        spans.wrap(self.service, "read", "service.read_rtt")
        #: The types schema reads pick from: fixed at set-up.
        self.read_types = self.base_types + [
            manager.model.type_id(name)
            for name in ("Person", "Location", "City", "Car")]
        self.newest_slot = None
        self.last_epoch = 0
        self.epochs = set()
        self.schema_reads = 0
        warm = sized(self.WARM_OPS, scale, 100)
        for op in self.plan(seed, warm, scale, first_write=1_000_000):
            self.run(op)
        if not manager.check().consistent:
            raise RuntimeError("read_under_churn: inconsistent after set-up")

    def populate(self):
        runtime = self.manager.runtime
        session = self.manager.begin_session()
        started = time.perf_counter()
        self.cities = [runtime.create_object(
            "City", {"longi": 8.0 + i * 0.01, "lati": 49.0 + i * 0.01,
                     "name": f"City{i}", "noOfInhabitants": 1000 * i},
            session=session) for i in range(sized(50, self.scale, 5))]
        people = [runtime.create_object(
            "Person", {"name": f"Person{i}", "age": 20 + i % 60},
            session=session) for i in range(sized(500, self.scale, 10))]
        self.cars = [runtime.create_object(
            "Car", {"owner": people[i % len(people)].oid,
                    "maxspeed": 120.0 + i % 100, "milage": 1000.0 * i,
                    "location": self.cities[i % len(self.cities)].oid},
            session=session) for i in range(sized(5000, self.scale, 50))]
        created = len(self.cities) + len(people) + len(self.cars)
        self.counts["create_s"] = time.perf_counter() - started
        self.counts["created"] = created
        session.commit()

    # -- the three op kinds ----------------------------------------------------

    def read(self, picks):
        types = self.read_types
        tids = [pick(types, fraction) for fraction in picks]
        with self.clock as clock:
            epoch, answer = self.service.read(
                lambda session: (session.epoch, read_bundle(session, tids)))
        # Single client: nothing commits between the read and this
        # check, so the live model is at the epoch the read was served.
        ok = epoch >= self.last_epoch and epoch == self.manager.model.epoch
        self.last_epoch = max(self.last_epoch, epoch)
        self.schema_reads += 1
        if self.schema_reads % SAMPLE_EVERY == 0:
            ok = ok and answer == read_bundle(self.manager.model, tids)
        if self.traced:
            self.epochs.add(epoch)
        return clock.seconds, ok

    def object_op(self, car_pick, city_pick):
        runtime, spans = self.manager.runtime, self.spans
        car = pick(self.cars, car_pick)
        city = pick(self.cities, city_pick)
        slot = self.newest_slot or "maxspeed"
        with self.clock as clock:
            with spans.span("runtime.get_attr"):
                owner = runtime.get_attr(car, "owner")
            with spans.span("runtime.get_attr"):
                newest = runtime.get_attr(car, slot)
            with spans.span("runtime.call"):
                milage = runtime.call(car, "changeLocation",
                                      [owner, city.oid])
        ok = (milage == car.slots["milage"]
              and car.slots["location"] == city.oid
              and (self.newest_slot is None or newest == 0))
        return clock.seconds, ok

    def write(self, number, draw, name_seed):
        manager, spans = self.manager, self.spans
        rng = random.Random(name_seed)
        attr = f"fuel{number}"
        with self.clock as clock:
            session = self.begin()
            try:
                with spans.span("analyzer.primitives"):
                    self.evolve_base(session, rng, draw)
                    manager.analyzer.primitives(session).add_attribute(
                        manager.model.type_id("Car"), attr,
                        builtin_type("int"))
                with spans.span("runtime.lazy_cure"):
                    manager.migrations.add_slot("Car", attr, 0,
                                                session=session)
                if number % DRAIN_EVERY == DRAIN_EVERY - 1:
                    with spans.span("runtime.drain"):
                        drained = manager.migrations.drain_in_session(
                            session, limit=DRAIN_LIMIT)
                    self.counts["drained"] += drained
                with spans.span("control.commit"):
                    report = session.commit()
            except ReproError:
                if session.active:
                    session.rollback()
                return clock.seconds, False
        self.newest_slot = attr
        self.session_seconds.append(clock.seconds)
        if self.traced:
            self.counts["commits"] += 1
            self.absorb_session_stats()
        return clock.seconds, report.consistent

    def run(self, op):
        kind, number, payload, name_seed = op
        if kind == "read":
            return self.read(payload)
        if kind == "object":
            return self.object_op(*payload)
        return self.write(number, payload, name_seed)

    # -- after the measured phase ----------------------------------------------

    def verify(self):
        manager = self.manager
        session = manager.begin_session()
        manager.migrations.drain_in_session(session)
        session.commit()
        checks = super().verify()
        checks["debt_drained"] = manager.migrations.debt() == 0
        return checks

    def probe(self):
        """The read bundle straight on a snapshot, bypassing the service."""
        snapshot = self.manager.snapshot()
        rng = random.Random(self.seed)
        types = self.read_types
        rounds = 200
        started = time.perf_counter()
        for _ in range(rounds):
            read_bundle(snapshot, rng.sample(types, TYPES_PER_READ))
        self.direct_read_seconds = (time.perf_counter() - started) / rounds
        self.service.close()
        probes = super().probe()
        probes["gom.read_query_ms"] = self.direct_read_seconds * 1000.0
        probes["service.epochs_observed"] = len(self.epochs)
        return probes

    def layer_split(self):
        """The client only sees the service round trip; the part of it
        the same queries take straight on a snapshot is gom's."""
        reads = sum(1 for row in self.spans.rows
                    if row[0] == "service.read_rtt")
        return {("service", "gom"): reads * self.direct_read_seconds}

    def close(self):
        self.service.close()
        super().close()
