"""The bench spine: one command, five fixed-work workloads.

    python3 benchmarks/spine/run.py [--seed 1993] [--workload NAME]
        [--scale 1.0] [--seconds 10] [--trace 0|1]
        [--workdir DIR] [--out DIR]

With ``--workload`` it runs that workload once — untraced for the
end-to-end metrics (``--trace 0``) or traced for the per-layer metrics
(``--trace 1``) — prints every metric by name with its unit, runs the
workload's correctness checks, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` it runs all five, both ways, each in a process of its
own, and writes ``result.seed<N>.json`` (plus the Chrome traces) under
``--out``.  ``--seconds`` and ``--scale`` size the *operation list*;
the work for a (seed, seconds, scale) is fixed, whatever the host.
"""

import argparse
import importlib
import json
import multiprocessing
import os
import pkgutil
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "src"))


def warm_host():
    """Import every ``repro`` module and start-and-join one child, so
    the first workload does not pay for either (a cold first cluster
    start was 30 % slower)."""
    import repro
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    child = multiprocessing.get_context().Process(target=int)
    child.start()
    child.join()
    child.close()


def fingerprint(seed, scale, workdir):
    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    try:
        sha = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": cores, "workdir_fs": filesystem_of(workdir),
            "load_1min": load, "noisy_host": load > cores,
            "seed": seed, "scale": scale}


def filesystem_of(path):
    """Filesystem type of the mount holding *path* (longest prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts", "r", encoding="utf-8") as handle:
        for line in handle:
            _device, mount, fstype = line.split()[:3]
            if path == mount or path.startswith(mount.rstrip("/") + "/"):
                if len(mount) > len(best):
                    best, kind = mount, fstype
    return kind


def print_result(name, traced, result):
    from harness import FLUSH_POLICY
    print(f"== {name} ({'traced, first third' if traced else 'untraced'}) "
          f"— closed loop, 1 client; flush policy: {FLUSH_POLICY}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<34} {entry['value']:>16.4f} {entry['unit']}")
    for check, passed in result["checks"].items():
        print(f"  check {check:<28} {'ok' if passed else 'FAILED'}")
    print(f"  ops attempted {result['attempted']}, failed "
          f"{result['failed']}")


def run_one(args):
    """One workload, one way; the last stdout line is the result."""
    warm_host()
    sys.path.insert(0, HERE)
    import harness
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workdir = harness.Workdir(os.path.join(
        args.workdir, f"{args.workload}.{os.getpid()}"))
    try:
        if args.trace:
            result = harness.run_traced(workload, args.seed, args.seconds,
                                        args.scale, workdir, out=args.out)
        else:
            result = harness.run_untraced(workload, args.seed, args.seconds,
                                          args.scale, workdir)
    finally:
        workdir.close()
    print_result(args.workload, args.trace, result)
    result.pop("checks")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Every workload both ways, each in its own process so one's peak
    RSS and garbage cannot leak into the next."""
    sys.path.insert(0, HERE)
    from metrics import WORKLOAD_WHY
    out = args.out or os.path.join(HERE, ".out")
    os.makedirs(out, exist_ok=True)
    document = {"fingerprint": fingerprint(args.seed, args.scale,
                                           args.workdir),
                "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOAD_WHY:
        entry = document["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--scale", str(args.scale),
                 "--trace", str(trace), "--workdir", args.workdir,
                 "--out", out],
                capture_output=True, text=True)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode not in (0, 1) or not lines:
                print(child.stderr, file=sys.stderr)
                return 2
            status = max(status, child.returncode)
            entry[key] = json.loads(lines[-1])
    path = os.path.join(out, f"result.seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"result written to {path}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--seconds", type=float, default=10,
                        help="sizes the op list (ops are fixed per seed)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=os.path.join(HERE, ".work"),
                        help="where systems live during a run")
    parser.add_argument("--out", default=None,
                        help="where result JSON and Chrome traces go")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
