"""E5 — efficient consistency checking at EES (the [20] claim).

The paper defers checking to the end of an evolution session and cites
compiled/incremental checking for efficiency.  This benchmark compares
the two EES strategies after a single evolution step, across schema
sizes:

* ``full`` — the naive full check (every premise instantiation);
* ``delta`` — the delta-seeded check fed directly by the engine's
  incremental view maintenance (exact grown/shrunk sets).

The claim reproduced: the incremental check wins and the gap grows with
schema size — session cost proportional to the delta, not the schema.
"""

import random

import pytest

from repro.manager import SchemaManager
from repro.workloads.synthetic import generate_schema, random_evolution

SIZES = (50, 150, 400)
MODES = ("delta", "full")

_RESULTS = {}


def make_session(n_types):
    manager = SchemaManager()
    schema = generate_schema(manager, n_types, seed=100 + n_types)
    manager.model.db.materialize()
    session = manager.begin_session(check_mode="delta")
    random_evolution(schema, session, random.Random(7), "add_attribute")
    return session


@pytest.mark.parametrize("n_types", SIZES)
@pytest.mark.parametrize("mode", MODES)
def test_e5_check_scaling(benchmark, mode, n_types):
    session = make_session(n_types)
    benchmark.group = f"E5 n={n_types}"
    result = benchmark(lambda: session.check(mode))
    assert result.consistent
    _RESULTS[(n_types, mode)] = benchmark.stats.stats.mean


def test_e5_report(benchmark, report, report_json):
    benchmark(lambda: None)  # report-only test; keep --benchmark-only happy
    if len(_RESULTS) < len(MODES) * len(SIZES):
        pytest.skip("scaling benchmarks did not run")
    lines = ["E5 — incremental vs naive full consistency check at EES", "",
             f"{'types':>6} {'full (ms)':>12} {'delta (ms)':>12} "
             f"{'vs full':>8}"]
    speedups = []
    points = []
    for n_types in SIZES:
        full = _RESULTS[(n_types, "full")] * 1000
        delta = _RESULTS[(n_types, "delta")] * 1000
        speedups.append(full / delta)
        points.append({"types": n_types, "full_ms": round(full, 4),
                       "delta_ms": round(delta, 4),
                       "speedup_vs_full": round(full / delta, 2)})
        lines.append(f"{n_types:>6} {full:>12.2f} {delta:>12.2f} "
                     f"{full / delta:>7.1f}x")
    lines.append("")
    holds = speedups[-1] > speedups[0] > 1
    lines.append("paper's claim: checking at EES is efficient (delta-based);"
                 " shape check: speedup grows with schema size -> "
                 + ("HOLDS" if holds else "DOES NOT HOLD"))
    report("e5_incremental", "\n".join(lines))
    report_json("e5_incremental", {
        "experiment": "e5_incremental",
        "claim": "delta check beats naive full check, gap grows with size",
        "holds": holds,
        "points": points,
    })
    assert speedups[0] > 1
    assert speedups[-1] > speedups[0]
