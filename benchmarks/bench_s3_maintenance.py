"""S3 — view maintenance under heavy session traffic.

The ROADMAP's hot path: a long stream of small BES…EES sessions against
an already-large schema.  Each session applies a few random evolution
steps and commits with the incremental check.  Compared A/B via the
engine's ``maintenance=`` flag:

* ``delta`` — incremental view maintenance: ops propagate their deltas
  in place, EES consumes the exact grown/shrunk sets;
* ``recompute`` — the baseline: ops invalidate, the first read after
  each op re-saturates the affected predicates, and the delta check
  takes its conservative (counted) fallback for lack of an exact delta.

Reported as per-op latency so the numbers stay comparable across stream
shapes (many tiny sessions vs. one long session).
"""

import random

import pytest

from repro.manager import SchemaManager
from repro.workloads.synthetic import generate_schema, random_evolution

N_TYPES = 150
MODES = ("delta", "recompute")
#: (ops per session) — one tiny-session shape, one long-session shape.
SHAPES = (1, 20)

_RESULTS = {}
_MAINT = {}


def make_stream(maintenance):
    manager = SchemaManager(maintenance=maintenance)
    schema = generate_schema(manager, N_TYPES, seed=42)
    manager.model.db.materialize()
    return manager, schema, random.Random(7)


@pytest.mark.parametrize("ops_per_session", SHAPES)
@pytest.mark.parametrize("maintenance", MODES)
def test_s3_session_stream(benchmark, maintenance, ops_per_session):
    manager, schema, rng = make_stream(maintenance)
    benchmark.group = f"S3 {ops_per_session} op(s)/session"

    def one_session():
        session = manager.begin_session(check_mode="delta")
        for _ in range(ops_per_session):
            random_evolution(schema, session, rng)
        return session.commit()

    result = benchmark(one_session)
    assert result.consistent
    stats = manager.last_session_stats()
    if maintenance == "delta":
        # A maintained session must never hit the conservative slow path.
        assert stats.delta_fallbacks == 0
        _MAINT[ops_per_session] = {
            "insert_rounds": stats.maint_insert_rounds,
            "over_deleted": stats.maint_deleted,
            "rederived": stats.maint_rederived,
            "maint_ms": round(stats.maint_ms, 4),
        }
    _RESULTS[(maintenance, ops_per_session)] = benchmark.stats.stats.mean


def test_s3_report(benchmark, report, report_json):
    benchmark(lambda: None)  # report-only test; keep --benchmark-only happy
    if len(_RESULTS) < len(MODES) * len(SHAPES):
        pytest.skip("stream benchmarks did not run")
    lines = [f"S3 — per-op session latency under maintenance vs recompute "
             f"(n={N_TYPES} types)", "",
             f"{'ops/session':>12} {'recompute (ms/op)':>18} "
             f"{'delta (ms/op)':>14} {'speedup':>8}"]
    points = []
    for ops_per_session in SHAPES:
        recompute = (_RESULTS[("recompute", ops_per_session)] * 1000
                     / ops_per_session)
        delta = (_RESULTS[("delta", ops_per_session)] * 1000
                 / ops_per_session)
        points.append({
            "ops_per_session": ops_per_session,
            "recompute_ms_per_op": round(recompute, 4),
            "delta_ms_per_op": round(delta, 4),
            "speedup": round(recompute / delta, 2),
            "maintenance": _MAINT.get(ops_per_session, {}),
        })
        lines.append(f"{ops_per_session:>12} {recompute:>18.3f} "
                     f"{delta:>14.3f} {recompute / delta:>7.1f}x")
    lines.append("")
    lines.append("claim: with view maintenance, session cost is proportional "
                 "to the session's delta, not the schema size")
    report("s3_maintenance", "\n".join(lines))
    report_json("s3_maintenance", {
        "experiment": "s3_maintenance",
        "claim": "maintained sessions beat snapshot+recompute sessions "
                 "under heavy traffic",
        "types": N_TYPES,
        "points": points,
    })
    # The maintained engine must win per-op on both stream shapes.
    assert all(point["speedup"] > 1 for point in points)
