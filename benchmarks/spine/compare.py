"""Compare two sets of bench-spine results, metric by metric.

    python3 benchmarks/spine/compare.py --a A.json [A2.json ...]
                                        --b B.json [B2.json ...]

Each argument is a ``result.seed<N>.json`` written by ``run.py`` (or a
directory of them).  A is the reference (the parent commit, or the
first of two same-commit sets), B the candidate.  For every workload x
end-to-end metric it prints both medians and quartile ranges, how much
worse B's median is than A's (positive = worse, whichever direction
the metric improves in), and the bound from ``BENCHMARK.json``:

* ``out of bound`` — B is worse than A by more than the bound;
* ``unresolved`` — either set's inter-quartile spread is wider than
  the bound and B is not better on every run, so the runs cannot show
  "no change";
* ``ok`` otherwise.

Exits non-zero on any out-of-bound pair.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def load_set(paths):
    """{workload: {metric: [values]}} over every result file in *paths*."""
    files = []
    for path in paths:
        files.extend(sorted(glob.glob(os.path.join(path, "result.*.json")))
                     if os.path.isdir(path) else [path])
    if not files:
        raise SystemExit(f"no result files in {paths}")
    values = {}
    for name in files:
        with open(name, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        for workload, entry in document["workloads"].items():
            for metric, cell in entry["end_to_end"]["metrics"].items():
                values.setdefault(workload, {}).setdefault(
                    metric, []).append(cell["value"])
    return values


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def judge(a, b, better, bound):
    """(relative worsening of B's median, verdict) for one pair."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b_median - a_median) / a_median
    if worse > bound:
        return worse, "out of bound"
    b_always_better = (max(b) < min(a)) if better == "lower" \
        else (min(b) > max(a))
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_median
    if spread > bound and not b_always_better:
        return worse, "unresolved"
    return worse, "ok"


def compare(set_a, set_b, spec):
    rows, failed = [], False
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = set_a.get(workload, {}).get(name)
            b = set_b.get(workload, {}).get(name)
            if not a or not b:
                continue
            worse, verdict = judge(a, b, metric["better"], metric["bound"])
            failed = failed or verdict == "out of bound"
            rows.append((workload, name, quartiles(a), quartiles(b),
                         worse, metric["bound"], verdict))
    return rows, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", nargs="+", required=True,
                        help="reference result files or directories")
    parser.add_argument("--b", nargs="+", required=True,
                        help="candidate result files or directories")
    parser.add_argument("--spec",
                        default=os.path.join(REPO, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows, failed = compare(load_set(args.a), load_set(args.b), spec)
    print(f"{'workload':<18} {'metric':<17} {'A median [q1..q3]':>34} "
          f"{'B median [q1..q3]':>34} {'worse':>8} {'bound':>6}  verdict")
    for workload, name, a, b, worse, bound, verdict in rows:
        print(f"{workload:<18} {name:<17} "
              f"{a[1]:>12.4f} [{a[0]:>9.4f}..{a[2]:>9.4f}] "
              f"{b[1]:>12.4f} [{b[0]:>9.4f}..{b[2]:>9.4f}] "
              f"{worse * 100:>+7.2f}% {bound * 100:>5.1f}%  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
