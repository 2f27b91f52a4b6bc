"""Performance floors: each test holds one measurement to a fixed bound.

The tier-1 suite does not collect this module (``testpaths`` is
``tests``): its bounds are wall-clock figures that mean something only
on an otherwise idle machine.  CI runs each test in the job that names
it; locally::

    PYTHONPATH=src python -m pytest -q benchmarks/test_floors.py

E5 and E9 hold single-shot timings (``repro.tools.experiments.warm_ms``)
to ``MAX_REGRESSION`` times the baselines below.  Every other floor is a
ratio of two configurations measured in the same run.
"""

import random
import threading
import time

from repro.farm import SchemaFarm
from repro.fuzz.history import Op, SessionPlan
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.replication import ReplicationClient, ReplicationCluster
from repro.tools.experiments import e5_rows, e9_rows, warm_ms
from repro.workloads.synthetic import generate_schema, random_evolution

MAX_REGRESSION = 2.0

#: Milliseconds per schema size: (delta check, full check).
E5_BASELINE_MS = {50: (1.0147, 1.9618), 150: (0.4775, 8.1208),
                  400: (0.5171, 12.9253)}

#: Milliseconds of one detect + repair cycle per seeded inconsistency.
E9_BASELINE_MS = {"dangling_domain": 1.2674, "duplicate_type_name": 1.1099,
                  "subtype_cycle": 23.3812, "missing_code": 2.2184,
                  "bad_refinement": 4.0018}


def _over_baseline(label, measured_ms, baseline_ms):
    """Print the ratio to the baseline; a one-item failure list when it
    exceeds ``MAX_REGRESSION``."""
    ratio = measured_ms / baseline_ms
    line = (f"{label}: {measured_ms:.3f} ms, {ratio:.2f}x the baseline "
            f"{baseline_ms:.3f} ms (limit {MAX_REGRESSION}x)")
    print(line)
    return [line] if ratio > MAX_REGRESSION else []


def test_e5_delta_check_beats_full_and_stays_near_baseline():
    rows = e5_rows()
    assert all(row["consistent"] for row in rows)
    speedups = [row["full_ms"] / row["delta_ms"] for row in rows]
    assert speedups[0] > 1
    assert speedups[-1] > speedups[0]
    failures = []
    for row in rows:
        delta_ms, full_ms = E5_BASELINE_MS[row["types"]]
        failures += _over_baseline(f"{row['types']} types delta",
                                   row["delta_ms"], delta_ms)
        failures += _over_baseline(f"{row['types']} types full",
                                   row["full_ms"], full_ms)
    assert not failures, "\n".join(failures)


def test_e9_catalogue_detects_repairs_and_stays_near_baseline():
    failures = []
    for row in e9_rows():
        kind = row["inconsistency"]
        assert row["expected"] in row["fired"], (kind, row["fired"])
        assert row["repairs"] > 0, kind
        failures += _over_baseline(kind, row["ms"], E9_BASELINE_MS[kind])
    assert not failures, "\n".join(failures)


def test_s3_maintained_sessions_beat_recompute():
    """150 types; one tiny-session and one long-session stream shape."""
    for ops_per_session in (1, 20):
        ms_per_op = {}
        for maintenance in ("delta", "recompute"):
            manager = SchemaManager(maintenance=maintenance)
            schema = generate_schema(manager, 150, seed=42)
            manager.model.db.materialize()
            rng = random.Random(7)

            def one_session():
                session = manager.begin_session(check_mode="delta")
                for _ in range(ops_per_session):
                    random_evolution(schema, session, rng)
                return session.commit()

            result, ms = warm_ms(one_session)
            assert result.consistent
            if maintenance == "delta":
                assert manager.last_session_stats().delta_fallbacks == 0
            ms_per_op[maintenance] = ms / ops_per_session
        print(f"S3 {ops_per_session} op(s)/session: maintained "
              f"{ms_per_op['delta']:.2f} ms/op, recompute "
              f"{ms_per_op['recompute']:.2f} ms/op")
        assert ms_per_op["delta"] < ms_per_op["recompute"]


def _reads_per_second(manager, schema, readers, requests=400):
    """Snapshot reads (six types' queries plus 1 ms of simulated I/O)
    served by *readers* threads while a writer commits sessions."""
    stop = threading.Event()

    def writer():
        rng = random.Random(readers)
        while not stop.is_set():
            frontier = len(schema.type_ids)
            session = manager.begin_session()
            random_evolution(schema, session, rng)
            session.commit()
            del schema.type_ids[frontier:]

    def read(read_session):
        for tid in type_ids[:6]:
            read_session.type_name(tid)
            read_session.attributes(tid, inherited=True)
            read_session.supertypes(tid)
        time.sleep(0.001)

    service = manager.serve(readers=readers)
    type_ids = list(schema.type_ids)
    writer_thread = threading.Thread(target=writer, daemon=True)
    writer_thread.start()
    try:
        service.batch([(lambda rs: rs.epoch)] * readers)  # pool warm-up
        started = time.perf_counter()
        for future in [service.submit(read) for _ in range(requests)]:
            future.result()
        elapsed = time.perf_counter() - started
    finally:
        stop.set()
        writer_thread.join()
        service.close()
    return requests / elapsed


def test_c1_reader_scaling_under_a_writer():
    manager = SchemaManager()
    schema = generate_schema(manager, 12, seed=1993)
    manager.model.enable_snapshots()
    rates = [_reads_per_second(manager, schema, readers)
             for readers in (1, 2, 4, 8)]
    scaling = rates[-1] / rates[0]
    print(f"C1 1 -> 8 reader scaling {scaling:.2f}x (floor 3.0x)")
    assert scaling >= 3.0


def _digest_reads_per_second(directory, replicas, threads=16, seconds=2.0):
    """Closed-loop digest reads, each holding a 20 ms service floor,
    against a lone primary (``replicas=0``) or spread over the replicas
    of 8 committed schemas."""
    cluster = ReplicationCluster.open(directory, replicas=replicas)
    try:
        with cluster.client() as client:
            for index in range(8):
                types = "\n".join(
                    f"  type C3T{index}x{t} is [ a: int; b: float; "
                    f"c: string; d: int; ] end type C3T{index}x{t};"
                    for t in range(3))
                reply = client.write(f"schema C3S{index} is\ninterface\n"
                                     f"{types}\nend schema C3S{index};")
        cluster.wait_for_epoch(reply["epoch"], timeout=120.0)
        targets = cluster.replicas if replicas else [cluster.primary]
        counts = [0] * threads
        errors = []
        barrier = threading.Barrier(threads + 1)
        stop = threading.Event()

        def reader(slot):
            client = ReplicationClient(targets[slot % len(targets)].address)
            try:
                barrier.wait()
                while not stop.is_set():
                    client.read(op="digest", io_ms=20.0)
                    counts[slot] += 1
            except Exception as exc:  # reported by the assert below
                errors.append(f"reader {slot}: {exc!r}")
            finally:
                client.close()

        workers = [threading.Thread(target=reader, args=(slot,),
                                    daemon=True) for slot in range(threads)]
        for worker in workers:
            worker.start()
        barrier.wait()
        started = time.perf_counter()
        time.sleep(seconds)
        stop.set()
        for worker in workers:
            worker.join(timeout=30.0)
        elapsed = time.perf_counter() - started
    finally:
        cluster.close()
    assert not errors, errors[:3]
    return sum(counts) / elapsed


def test_c3_replica_read_scaling(tmp_path):
    single = _digest_reads_per_second(str(tmp_path / "single"), replicas=0)
    scaling = _digest_reads_per_second(str(tmp_path / "replicated"),
                                       replicas=4) / single
    print(f"C3 1 -> 4 replica read scaling {scaling:.2f}x (floor 2.5x)")
    assert scaling >= 2.5


def _populated(n_objects):
    manager = SchemaManager()
    manager.define("schema Vehicles is\n"
                   "type Vehicle is [ speed: int; ] end type Vehicle;\n"
                   "type Car supertype Vehicle is [ doors: int; ] "
                   "end type Car;\nend schema Vehicles;")
    tid = manager.model.type_id("Car")
    session = manager.begin_session()
    for index in range(n_objects):
        manager.runtime.create_object(tid, {"speed": index, "doors": 4},
                                      session=session)
    session.commit()
    return manager, tid


def _cure_ms(manager, tid, cures):
    """One session: add ``fuel_type`` to Car, cure it with *cures*
    (eager conversions or lazy migrations), commit."""
    started = time.perf_counter()
    session = manager.begin_session()
    manager.analyzer.primitives(session).add_attribute(
        tid, "fuel_type", builtin_type("int"))
    cures.add_slot(tid, "fuel_type", 0, session=session)
    session.commit()
    return (time.perf_counter() - started) * 1000.0


def _lazy_cure_converts_everything(manager, tid, n_objects, sample=1000):
    """Touch a sample of stale Cars, then drain the rest of the debt
    in batches of 2000 while two threads read snapshots."""
    objects = manager.runtime.objects_of(tid)[:sample]
    session = manager.begin_session()
    for obj in objects:
        manager.runtime.get_attr(obj, "fuel_type")
    session.commit()
    touched = sum(obj.slots.get("fuel_type") == 0 for obj in objects)
    engine = manager.runtime.migrations
    service = manager.serve(readers=2)
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            service.submit(
                lambda rs: rs.attributes(tid, inherited=True)).result()

    readers = [threading.Thread(target=reader, daemon=True)
               for _ in range(2)]
    try:
        for thread in readers:
            thread.start()
        drained = engine.background(batch_size=2000).drain()
    finally:
        stop.set()
        for thread in readers:
            thread.join()
        service.close()
    return (touched == min(sample, n_objects) and engine.debt() == 0
            and drained + touched == n_objects)


def test_m1_lazy_cure_commits_20x_faster_than_eager():
    """Both sizes must convert every Car; the floor holds at the larger."""
    for n_objects in (2000, 20000):
        eager, tid = _populated(n_objects)
        eager_ms = _cure_ms(eager, tid, eager.conversions)
        assert all(obj.slots.get("fuel_type") == 0
                   for obj in eager.runtime.objects_of(tid))
        lazy, tid = _populated(n_objects)
        lazy_ms = _cure_ms(lazy, tid, lazy.migrations)
        assert _lazy_cure_converts_everything(lazy, tid, n_objects)
    speedup = eager_ms / lazy_ms
    print(f"M1 eager/lazy cure at {n_objects} objects {speedup:.2f}x "
          f"(floor 20x)")
    assert speedup >= 20.0


def _farm_sessions_per_second(directory, shards, names, sessions=24):
    """Full-check writer sessions on a farm of *shards* holding *names*
    (four types of three attributes each) and four cross-shard imports."""
    farm = SchemaFarm.open(directory, shards=shards)
    rng = random.Random(shards * 7919)
    try:
        for name in names:
            types = "\n".join(
                f"  type T{t}{name} is [ a : float; b : int; c : string; ] "
                f"end type T{t}{name};" for t in range(4))
            farm.define(f"schema {name} is\npublic T0{name};\ninterface\n"
                        f"{types}\nend schema {name};")
            farm.bind(name, f"base:{name}",
                      {"kind": "type", "name": f"T0{name}", "schema": name})
        imports = 0
        for importer, imported in zip(names, names[len(names) // 2:]):
            if imports < 4 and farm.shard_of(importer) != farm.shard_of(
                    imported):
                farm.import_schema(importer, imported)
                imports += 1

        def plan(name, attribute):
            return SessionPlan(ops=[Op("add_attribute", {
                "type": f"base:{name}", "name": attribute,
                "domain": "builtin:float"})])

        # The first full check after the bulk load builds indexes and
        # compiles plans once per shard; that is not session throughput.
        warmed = {}
        for name in names:
            warmed.setdefault(farm.shard_of(name), name)
        for name in warmed.values():
            assert farm.session(name, plan(name, "warmup"),
                                check_mode="full")["committed"]
        plans = [(name, plan(name, f"bench{index}")) for index, name in
                 enumerate(rng.choice(names) for _ in range(sessions))]
        started = time.perf_counter()
        futures = [farm.submit(name, session_plan, check_mode="full")
                   for name, session_plan in plans]
        replies = [future.result() for future in futures]
        elapsed = time.perf_counter() - started
        assert all(reply["committed"] for reply in replies)
    finally:
        farm.close()
    return sessions / elapsed


def test_c2_shard_speedup(tmp_path):
    names = [f"Tenant{i}" for i in range(200)]
    single = _farm_sessions_per_second(str(tmp_path / "one"), 1, names)
    speedup = _farm_sessions_per_second(str(tmp_path / "eight"), 8,
                                        names) / single
    print(f"C2 1 -> 8 shard speedup {speedup:.2f}x (floor 4.0x)")
    assert speedup >= 4.0
