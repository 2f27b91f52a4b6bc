"""A1/A2 — ablations of the incremental-checking design choices.

Two internal mechanisms make the E5 speedups possible; each is ablated
here to show it earns its keep:

* **A1 — exact derived deltas.**  The maintained engine hands the EES
  check exact grown/shrunk sets.  Without them the checker stays sound but
  over-approximates (grown predicates are seeded with their *whole*
  extension; shrunk ones force full constraint rechecks).
* **A2 — predicate-level invalidation.**  The engine recomputes only
  derived predicates that transitively depend on changed base
  predicates.  The ablation forces a full rematerialization before each
  check.
"""

import random

import pytest

from repro.manager import SchemaManager
from repro.workloads.synthetic import generate_schema, random_evolution

N_TYPES = 200

_RESULTS = {}


def prepared_session():
    manager = SchemaManager()
    schema = generate_schema(manager, N_TYPES, seed=21)
    manager.model.db.materialize()
    session = manager.begin_session(check_mode="delta")
    random_evolution(schema, session, random.Random(3), "add_attribute")
    return manager, session


@pytest.fixture(scope="module")
def world():
    return prepared_session()


def test_a1_delta_with_snapshot(benchmark, world):
    manager, session = world
    benchmark.group = "A1 derived snapshot"
    result = benchmark(lambda: session.check("delta"))
    assert result.consistent
    _RESULTS["with_snapshot"] = benchmark.stats.stats.mean


def test_a1_delta_without_snapshot(benchmark, world):
    manager, session = world
    benchmark.group = "A1 derived snapshot"
    additions, deletions = session.net_delta()

    def check():
        return manager.model.checker.check_delta(additions, deletions)

    result = benchmark(check)
    assert result.consistent  # sound either way
    _RESULTS["without_snapshot"] = benchmark.stats.stats.mean


def test_a2_predicate_level_invalidation(benchmark, world):
    manager, session = world
    benchmark.group = "A2 invalidation granularity"

    def check_with_forced_rematerialization():
        manager.model.db.materialize(force=True)
        return session.check("delta")

    result = benchmark(check_with_forced_rematerialization)
    assert result.consistent
    _RESULTS["forced_remat"] = benchmark.stats.stats.mean


def test_a_report(benchmark, report, report_json):
    benchmark(lambda: None)
    needed = {"with_snapshot", "without_snapshot", "forced_remat"}
    if not needed <= set(_RESULTS):
        pytest.skip("ablation benchmarks did not run")
    with_snapshot = _RESULTS["with_snapshot"] * 1000
    without_snapshot = _RESULTS["without_snapshot"] * 1000
    forced = _RESULTS["forced_remat"] * 1000
    lines = [f"A1/A2 — ablations of incremental checking "
             f"({N_TYPES}-type schema, one evolution step)", "",
             f"delta check, exact derived deltas (full design): "
             f"{with_snapshot:>9.2f} ms",
             f"delta check, no exact delta (over-approx.):      "
             f"{without_snapshot:>9.2f} ms   "
             f"({without_snapshot / with_snapshot:.1f}x)",
             f"delta check, forced full rematerialization:      "
             f"{forced:>9.2f} ms   ({forced / with_snapshot:.1f}x)",
             "",
             "both mechanisms contribute; correctness is unaffected "
             "(the fallbacks are sound, property-tested)."]
    report("a1_ablations", "\n".join(lines))
    report_json("a1_ablations", {
        "experiment": "a1_ablations",
        "claim": "exact derived deltas and predicate-level invalidation "
                 "both contribute to the incremental-check speedup",
        "types": N_TYPES,
        "full_design_ms": round(with_snapshot, 4),
        "no_snapshot_ms": round(without_snapshot, 4),
        "forced_remat_ms": round(forced, 4),
        "no_snapshot_factor": round(without_snapshot / with_snapshot, 2),
        "forced_remat_factor": round(forced / with_snapshot, 2),
    })
    assert without_snapshot >= with_snapshot * 0.8
    assert forced > with_snapshot
