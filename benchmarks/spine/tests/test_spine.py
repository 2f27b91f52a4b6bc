"""Self-tests of the bench spine (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/spine/tests -q
"""

import hashlib
import json
import os
import re
import sys

import pytest

SPINE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(os.path.dirname(SPINE))
for path in (os.path.join(REPO, "src"), SPINE):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare                                            # noqa: E402
import harness                                            # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOAD_WHY   # noqa: E402
from spans import ROOT, Spans                             # noqa: E402
from workloads import WORKLOADS                           # noqa: E402

SCALE = 0.02
SECONDS = harness.NOMINAL_SECONDS
DURABLE_SINGLE_PROCESS = ("evolve_session", "repair_cure",
                          "read_under_churn")


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    """One untraced run of every workload at the test scale."""
    results = {}
    for name, workload in WORKLOADS.items():
        workdir = harness.Workdir(str(tmp_path_factory.mktemp(name)))
        try:
            results[name] = harness.run_untraced(
                workload, 1993, SECONDS, SCALE, workdir)
        finally:
            workdir.close()
    return results


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    results = {}
    for name, workload in WORKLOADS.items():
        workdir = harness.Workdir(str(tmp_path_factory.mktemp(name)))
        try:
            results[name] = harness.run_traced(
                workload, 1993, SECONDS, SCALE, workdir,
                out=str(tmp_path_factory.mktemp("out")))
        finally:
            workdir.close()
    return results


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_its_checks(untraced, traced, name):
    for result in (untraced[name], traced[name]):
        assert result["failed"] == 0
        assert all(result["checks"].values()), result["checks"]
        assert result["correct"]
        assert result["attempted"] >= 1


def test_names_match_benchmark_json(untraced, traced):
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(WORKLOAD_WHY) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [tuple(m) for m in PER_LAYER]
    names = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    for name in WORKLOADS:
        assert names.match(name)
        assert list(untraced[name]["metrics"]) == \
            [m["name"] for m in spec["end_to_end"]]
        assert list(traced[name]["metrics"]) == \
            [m["name"] for m in spec["per_layer"]]
        for metric in (*untraced[name]["metrics"],
                       *traced[name]["metrics"]):
            assert names.match(metric)
        # End-to-end metrics are never 0 (a bound is a share of them).
        assert all(cell["value"] > 0
                   for cell in untraced[name]["metrics"].values())


def plan_hash(name, seed):
    workload = WORKLOADS[name]
    count = harness.op_count(workload, SECONDS, SCALE)
    plan = workload.plan(seed, count, SCALE)
    return hashlib.sha256(json.dumps(plan).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_operation_list_is_a_function_of_the_seed(name):
    assert plan_hash(name, 1993) == plan_hash(name, 1993)
    assert plan_hash(name, 1993) != plan_hash(name, 7)


@pytest.mark.parametrize("name", DURABLE_SINGLE_PROCESS)
def test_same_seed_writes_the_same_log_bytes(untraced, tmp_path, name):
    workdir = harness.Workdir(str(tmp_path))
    try:
        again = harness.run_untraced(WORKLOADS[name], 1993, SECONDS, SCALE,
                                     workdir)
    finally:
        workdir.close()
    assert again["metrics"]["wal_bytes_per_op"]["value"] == \
        untraced[name]["metrics"]["wal_bytes_per_op"]["value"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_span_self_times_sum_to_op_time(tmp_path, name):
    workload = WORKLOADS[name]
    spans = Spans()
    system = workload(str(tmp_path / "sys"), 1993, SCALE, spans, traced=True)
    try:
        system.begin_measuring()
        spans.reset()
        count = harness.op_count(workload, SECONDS, SCALE)
        latencies, failed = harness.run_ops(
            system, workload.plan(1993, count, SCALE)[:max(1, count // 3)])
    finally:
        system.close()
    assert failed == 0
    assert sum(spans.self_seconds()) == pytest.approx(sum(latencies),
                                                      rel=0.02)
    roots = [row for row in spans.rows if row[0] == ROOT]
    assert len(roots) == len(latencies)
    assert all(row[3] == -1 for row in roots)


def test_compare_flags_out_of_bound_and_unresolved():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.judge(steady, steady, "lower", 0.05)[1] == "ok"
    worse = [value * 1.2 for value in steady]
    assert compare.judge(steady, worse, "lower", 0.05)[1] == "out of bound"
    assert compare.judge(steady, worse, "higher", 0.05)[1] == "ok"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.judge(noisy, noisy, "lower", 0.05)[1] == "unresolved"
