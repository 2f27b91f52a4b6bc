"""Running one workload: set-up, the closed measured loop, checks, recovery.

Every run is a **closed loop with one client thread** over a fixed,
seeded operation list: the next op is issued when the previous one
returned.  Systems are durable and fsync at every commit (the
production flush policy).  The cyclic GC stays on; everything alive
after set-up is frozen once so set-up garbage is not re-scanned.

The untraced run yields the end-to-end metrics.  The traced run
executes the first third of the same list twice on fresh systems —
untraced, then with the benchmark's spans and the program's own
``Observability`` on — and yields the per-layer metrics.
"""

import gc
import os
import shutil
import statistics
import time

from metrics import END_TO_END, LAYERS, PER_LAYER
from spans import GLUE_LAYER, NULL_SPANS, Spans

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
RECOVERY_REPEATS = 3
#: ``--seconds`` the BASE_OPS of each workload are sized for.
NOMINAL_SECONDS = 10
#: The measured loop stops issuing ops after this long, so a slow host
#: ends inside the driver's limit instead of being killed; ops not
#: issued are not attempted.
MAX_MEASURED_SECONDS = 75.0
FLUSH_POLICY = "fsync at every commit record (WAL group commit, one client)"
_TICK = os.sysconf("SC_CLK_TCK")


def op_count(workload, seconds, scale):
    return max(1, round(workload.BASE_OPS * scale * seconds
                        / NOMINAL_SECONDS))


def percentile(ordered, fraction):
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


# -- the host, as /proc tells it ----------------------------------------------

def cpu_seconds(pid):
    """User + system CPU of a live process.  Children are read one by
    one while alive: RUSAGE_CHILDREN only counts reaped ones."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid):
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def log_bytes(directory):
    """Size of every evolution log under *directory* (all nodes)."""
    from repro.storage.store import LOG_NAME
    return sum(os.path.getsize(os.path.join(root, LOG_NAME))
               for root, _dirs, files in os.walk(directory)
               if LOG_NAME in files)


# -- one system at a time -----------------------------------------------------

class Workdir:
    """Numbered fresh directories under one root, removed on close."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def fresh(self):
        self.count += 1
        return os.path.join(self.root, f"sys{self.count}")

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


def run_ops(system, plan):
    """The measured loop: per-op seconds and the number of failed ops."""
    seconds, failed = [], 0
    deadline = time.perf_counter() + MAX_MEASURED_SECONDS
    for op in plan:
        spent, ok = system.run(op)
        seconds.append(spent)
        failed += not ok
        if time.perf_counter() > deadline:
            break
    return seconds, failed


def settle(system):
    """End of set-up: collect its garbage once, freeze the survivors."""
    system.begin_measuring()
    gc.collect()
    gc.freeze()


def run_untraced(workload, seed, seconds, scale, workdir):
    """End-to-end metrics of one run: {"correct", "attempted", "failed",
    "metrics", "checks"}."""
    plan = workload.plan(seed, op_count(workload, seconds, scale), scale)
    setups, system = [], None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            system.close()
            system = None
            gc.collect()
        directory = workdir.fresh()
        started = time.perf_counter()
        system = workload(directory, seed, scale, NULL_SPANS)
        setups.append(time.perf_counter() - started)
    try:
        settle(system)
        pids = [os.getpid()] + system.node_pids()
        cpu_before = sum(cpu_seconds(pid) for pid in pids)
        wal_before = log_bytes(directory)
        latencies, failed = run_ops(system, plan)
        cpu = sum(cpu_seconds(pid) for pid in pids) - cpu_before
        wal = log_bytes(directory) - wal_before
        rss = sum(peak_rss_mb(pid) for pid in pids)
        checks = system.verify()
        before_close = system.digest()
    finally:
        system.close()
        gc.unfreeze()
    recoveries, recovered = [], []
    for _ in range(RECOVERY_REPEATS):
        started = time.perf_counter()
        recovered.append(workload.recovered_digest(directory))
        recoveries.append(time.perf_counter() - started)
    checks["recovery_digest"] = all(digest == before_close
                                    for digest in recovered)
    ops = len(latencies)
    ordered = sorted(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(latencies),
        "op_p50_ms": statistics.median(ordered) * 1000.0,
        "op_p95_ms": percentile(ordered, 0.95) * 1000.0,
        "cpu_ms_per_op": cpu * 1000.0 / ops,
        "peak_rss_mb": rss,
        "wal_bytes_per_op": wal / ops,
        "recovery_s": statistics.median(recoveries),
    }
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _better, _bound in END_TO_END},
        "checks": checks,
    }


def run_traced(workload, seed, seconds, scale, workdir, out=None):
    """Per-layer metrics of one run, same result shape as untraced."""
    count = op_count(workload, seconds, scale)
    prefix = workload.plan(seed, count, scale)[:max(1, count // 3)]

    system = workload(workdir.fresh(), seed, scale, NULL_SPANS)
    try:
        settle(system)
        plain, _failed = run_ops(system, prefix)
    finally:
        system.close()
        gc.unfreeze()
        del system
        gc.collect()

    spans = Spans()
    system = workload(workdir.fresh(), seed, scale, spans, traced=True)
    try:
        settle(system)
        spans.reset()
        latencies, failed = run_ops(system, prefix)
        checks = system.verify()
        probes = system.probe()       # closes the system
    except BaseException:
        system.close()
        raise
    finally:
        gc.unfreeze()
    values = layer_values(system, spans, latencies, plain, probes)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        spans.export_chrome(os.path.join(
            out, f"{workload.name}.seed{seed}.trace.json"))
    return {
        "correct": failed == 0 and all(checks.values()),
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit}
                    for name, unit, _better in PER_LAYER},
        "checks": checks,
    }


# -- spans and counts to per-layer numbers ------------------------------------

def layer_values(system, spans, latencies, plain, probes):
    ops = len(latencies)
    counts = system.counts
    table = spans.by_name()

    def per_op_ms(name, part="total_s"):
        return table.get(name, {}).get(part, 0.0) * 1000.0 / ops

    def per_call(name, factor=1000.0):
        entry = table.get(name)
        return entry["total_s"] * factor / entry["count"] if entry else 0.0

    def count_per_op(field):
        return counts[field] / ops

    values = dict(probes)
    values.update({
        "analyzer.parse_ms": per_op_ms("analyzer.parse"),
        "analyzer.translate_self_ms":
            per_op_ms("analyzer.translate", "self_s"),
        "analyzer.primitives_self_ms":
            per_op_ms("analyzer.primitives", "self_s"),
        "analyzer.operator_self_ms":
            per_op_ms("analyzer.operator", "self_s"),
        "analyzer.ddl_bytes_per_op": count_per_op("ddl_bytes"),
        "control.begin_ms": per_op_ms("control.begin"),
        "control.commit_self_ms": per_op_ms("control.commit", "self_s"),
        "control.rollback_ms": per_op_ms("control.rollback"),
        "control.protocol_self_ms": per_op_ms("control.protocol", "self_s"),
        "control.lock_wait_ms": counts["lock_wait_s"] * 1000.0 / ops,
        "control.commits": counts["commits"],
        "control.rollbacks": counts["rollbacks"],
        "datalog.maintain_ms": per_op_ms("datalog.maintain"),
        "datalog.materialize_ms": per_op_ms("datalog.materialize"),
        "datalog.check_delta_ms": per_op_ms("datalog.check_delta"),
        "datalog.repair_ms": per_op_ms("datalog.repair"),
        "datalog.facts_scanned": count_per_op("facts_scanned"),
        "datalog.index_lookups": count_per_op("index_lookups"),
        "datalog.join_tuples": count_per_op("join_tuples"),
        "datalog.maint_deleted": count_per_op("maint_deleted"),
        "datalog.maint_rederived": count_per_op("maint_rederived"),
        "datalog.plans_compiled": count_per_op("plans_compiled"),
        "datalog.delta_fallbacks": count_per_op("delta_fallbacks"),
        "datalog.violations": count_per_op("violations_found"),
        "gom.publish_ms": per_op_ms("gom.publish"),
        "runtime.get_attr_us": per_call("runtime.get_attr", 1e6),
        "runtime.call_us": per_call("runtime.call", 1e6),
        "runtime.eager_cure_ms": per_call("runtime.eager_cure"),
        "runtime.lazy_cure_ms": per_call("runtime.lazy_cure"),
        "storage.log_ops_ms": per_op_ms("storage.log_ops"),
        "storage.commit_fsync_ms": per_op_ms("storage.commit_fsync"),
        "storage.fsyncs_per_op": count_per_op("wal_fsyncs"),
        "storage.wal_records_per_op": count_per_op("wal_records"),
        "storage.wal_bytes_per_op": count_per_op("wal_bytes"),
        "service.read_rtt_ms": per_call("service.read_rtt"),
        "service.reads": table.get("service.read_rtt", {}).get("count", 0),
        "farm.session_rtt_ms": per_call("farm.session_rtt"),
        "farm.read_rtt_ms": per_call("farm.read_rtt"),
        "farm.import_refresh_ms": per_call("farm.import_refresh"),
        "replication.write_ack_ms": per_op_ms("replication.write_ack"),
        "replication.ship_apply_ms": per_op_ms("replication.ship_apply"),
        "obs.bench_spans": len(spans.rows),
    })
    planned = counts["plans_compiled"] + counts["plan_cache_hits"]
    if planned:
        values["datalog.plan_cache_hit_ratio"] = \
            counts["plan_cache_hits"] / planned
    repairs = [found for found, _spent in spans.values("datalog.repair")]
    if repairs:
        values["datalog.repairs_per_violation"] = statistics.mean(repairs)
    created = system.setup_counts["created"]
    if created:
        values["runtime.create_us"] = \
            system.setup_counts["create_s"] * 1e6 / created
    touches = [spent for converted, spent
               in spans.values("runtime.touch_convert") if converted]
    if touches:
        values["runtime.touch_convert_us"] = statistics.mean(touches) * 1e6
        values["runtime.converted"] = len(touches)
    drain = table.get("runtime.drain")
    if drain and drain["total_s"]:
        values["runtime.drain_objs_per_s"] = \
            counts["drained"] / drain["total_s"]
    if system.session_seconds:
        values["control.session_p99_ms"] = percentile(
            sorted(system.session_seconds), 0.99) * 1000.0
    tenth = max(1, ops // 10)
    values["control.drift_ratio"] = \
        sum(latencies[-tenth:]) / sum(latencies[:tenth])
    values["gom.cow_first_write_ms"] = cow_first_write_ms(spans)
    if "gom.read_query_ms" in values:
        values["service.dispatch_overhead_ms"] = \
            values["service.read_rtt_ms"] - values["gom.read_query_ms"]
    if "farm.worker_session_ms" in values:
        values["farm.pipe_overhead_ms"] = \
            values["farm.session_rtt_ms"] - values["farm.worker_session_ms"]
    if "replication.bytes_shipped" in values:
        values["replication.bytes_shipped_per_op"] = \
            values.pop("replication.bytes_shipped") / ops
        values["replication.visible_p99_ms"] = \
            percentile(sorted(latencies), 0.99) * 1000.0
    values["obs.spans_per_op"] = values.pop("program_spans", 0) / ops
    values["obs.trace_overhead_pct"] = \
        (sum(latencies) / sum(plain[:ops]) - 1.0) * 100.0
    values.update(layer_shares(system, spans))
    return values


def cow_first_write_ms(spans):
    """Mean first ``modify`` after a snapshot publish minus the mean of
    the other modifies: what copy-on-write costs the next writer."""
    first, later, published = [], [], False
    for row in spans.rows:
        name = row[0]
        if name == "gom.publish":
            published = True
        elif name == "datalog.maintain":
            (first if published else later).append(row[2] - row[1])
            published = False
    if not first or not later:
        return 0.0
    return (statistics.mean(first) - statistics.mean(later)) * 1000.0


def layer_shares(system, spans):
    """Each layer's share of measured op time, from span self times."""
    seconds = spans.by_layer()
    for (source, target), moved in system.layer_split().items():
        moved = min(moved, seconds.get(source, 0.0))
        seconds[source] = seconds.get(source, 0.0) - moved
        seconds[target] = seconds.get(target, 0.0) + moved
    total = sum(seconds.values()) or 1.0
    shares = {f"share.{layer}_pct": seconds.get(layer, 0.0) * 100.0 / total
              for layer in LAYERS}
    shares["share.bench_pct"] = seconds.get(GLUE_LAYER, 0.0) * 100.0 / total
    return shares
