"""The metric catalogue: names, units, directions, regression bounds.

``BENCHMARK.json`` at the repository root carries the same names (the
self-tests compare the two); this module is what the code emits from.
Every workload reports every metric, 0 where a layer does nothing.
"""

#: (name, unit, better, bound).  The bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("wal_bytes_per_op", "B", "lower", 0.01),
    ("recovery_s", "s", "lower", 0.25),
)

LAYERS = ("analyzer", "control", "datalog", "gom", "runtime", "storage",
          "service", "farm", "replication")

#: (name, unit, better).  Per-op means in ms unless the name says
#: otherwise: ``_us`` and the cure/rtt/refresh timings are per call,
#: counts are totals of the traced run or per-op as named.
PER_LAYER = (
    ("analyzer.parse_ms", "ms", "lower"),
    ("analyzer.translate_self_ms", "ms", "lower"),
    ("analyzer.primitives_self_ms", "ms", "lower"),
    ("analyzer.operator_self_ms", "ms", "lower"),
    ("analyzer.ddl_bytes_per_op", "B", "lower"),
    ("control.begin_ms", "ms", "lower"),
    ("control.commit_self_ms", "ms", "lower"),
    ("control.rollback_ms", "ms", "lower"),
    ("control.protocol_self_ms", "ms", "lower"),
    ("control.lock_wait_ms", "ms", "lower"),
    ("control.commits", "count", "higher"),
    ("control.rollbacks", "count", "higher"),
    ("control.session_p99_ms", "ms", "lower"),
    ("control.drift_ratio", "ratio", "lower"),
    ("datalog.maintain_ms", "ms", "lower"),
    ("datalog.materialize_ms", "ms", "lower"),
    ("datalog.check_delta_ms", "ms", "lower"),
    ("datalog.check_full_ms", "ms", "lower"),
    ("datalog.repair_ms", "ms", "lower"),
    ("datalog.facts_scanned", "count/op", "lower"),
    ("datalog.index_lookups", "count/op", "lower"),
    ("datalog.join_tuples", "count/op", "lower"),
    ("datalog.maint_deleted", "count/op", "lower"),
    ("datalog.maint_rederived", "count/op", "lower"),
    ("datalog.plans_compiled", "count/op", "lower"),
    ("datalog.plan_cache_hit_ratio", "ratio", "higher"),
    ("datalog.delta_fallbacks", "count/op", "lower"),
    ("datalog.violations", "count/op", "lower"),
    ("datalog.repairs_per_violation", "count", "lower"),
    ("datalog.edb_facts_end", "count", "lower"),
    ("gom.publish_ms", "ms", "lower"),
    ("gom.read_query_ms", "ms", "lower"),
    ("gom.cow_first_write_ms", "ms", "lower"),
    ("gom.digest_ms", "ms", "lower"),
    ("runtime.create_us", "us", "lower"),
    ("runtime.get_attr_us", "us", "lower"),
    ("runtime.call_us", "us", "lower"),
    ("runtime.touch_convert_us", "us", "lower"),
    ("runtime.converted", "count", "higher"),
    ("runtime.debt_end", "count", "lower"),
    ("runtime.eager_cure_ms", "ms", "lower"),
    ("runtime.lazy_cure_ms", "ms", "lower"),
    ("runtime.drain_objs_per_s", "1/s", "higher"),
    ("storage.log_ops_ms", "ms", "lower"),
    ("storage.commit_fsync_ms", "ms", "lower"),
    ("storage.fsyncs_per_op", "count/op", "lower"),
    ("storage.wal_records_per_op", "count/op", "lower"),
    ("storage.wal_bytes_per_op", "B", "lower"),
    ("storage.recovery_ms", "ms", "lower"),
    ("storage.replay_sessions", "count", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.snapshot_bytes", "B", "lower"),
    ("service.read_rtt_ms", "ms", "lower"),
    ("service.dispatch_overhead_ms", "ms", "lower"),
    ("service.reads", "count", "higher"),
    ("service.epochs_observed", "count", "higher"),
    ("farm.session_rtt_ms", "ms", "lower"),
    ("farm.read_rtt_ms", "ms", "lower"),
    ("farm.worker_session_ms", "ms", "lower"),
    ("farm.pipe_overhead_ms", "ms", "lower"),
    ("farm.import_refresh_ms", "ms", "lower"),
    ("farm.sessions_committed", "count", "higher"),
    ("replication.write_ack_ms", "ms", "lower"),
    ("replication.ship_apply_ms", "ms", "lower"),
    ("replication.visible_p99_ms", "ms", "lower"),
    ("replication.lag_ms_end", "ms", "lower"),
    ("replication.bytes_shipped_per_op", "B", "lower"),
    ("replication.digest_match", "count", "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
    ("obs.spans_per_op", "count/op", "lower"),
    ("obs.bench_spans", "count", "lower"),
) + tuple((f"share.{layer}_pct", "%", "lower") for layer in LAYERS) + (
    # Op time no layer span covers: benchmark glue.  100 minus this is
    # the coverage the per-layer budget accounts for.
    ("share.bench_pct", "%", "lower"),
)

WORKLOAD_WHY = {
    "evolve_session":
        "DDL module in, old module out per session at constant size: "
        "datalog maintenance and delta check carry the op, runtime and "
        "the multi-process layers are idle",
    "repair_cure":
        "seeded violations cured or rolled back through the protocol: "
        "repair generation, DRed, rollback and runtime cures carry the "
        "op, the parser and clean-commit path do not",
    "read_under_churn":
        "59 snapshot reads, 40 object ops, 1 lazy-cure write per 100: "
        "gom queries, service dispatch and convert-on-touch carry the "
        "op, publish and copy-on-write are paid per write",
    "replicated_commit":
        "DDL text to a replica's applied epoch over sockets: log "
        "shipping and replica apply carry the op, the only workload "
        "running follower code",
    "farm_commit":
        "small per-shard databases behind the pipe protocol: session "
        "bracket, pipe round trip and fsync are most of the op, so "
        "per-commit fixed costs show here before datalog does",
}
