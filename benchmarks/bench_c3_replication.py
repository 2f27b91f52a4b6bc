"""C3: read-capacity scaling across WAL-shipping read replicas.

Each replication node serves reads through a small bounded pool of
read slots (``repro.node.READ_THREADS``), so a node's sustainable read
rate for service-time-bound reads is ``slots / service_time``.  Replicas are
how that capacity scales: the committed evolution log is shipped to N
replica processes, each with its own slots over its own applied
snapshot.

The measured reads carry a fixed per-read service-time floor
(``--io-ms``, held while the read occupies a slot) modelling the
storage-fetch wait that dominates cold reads.  That makes the
benchmark measure *capacity* — nodes x slots — deterministically,
instead of raw digest CPU, which cannot scale past the host's core
count and turns the gate into a coin-flip on small shared CI runners
(this repo's CI floor is one core).

* **populate** — ``--schemas`` schemas committed on the primary, then
  every replica confirmed caught up (the measured reads never wait);
* **measure** — ``--threads`` closed-loop client threads per
  configuration issue continuous ``digest`` reads for ``--seconds``:
  first against a lone primary (the single-node floor), then against
  1 primary + 4 replicas with the reads spread across the replicas.

The headline is the replicated/single-node read factor; the acceptance
gate (``--check``) requires >= 2.5x.  Writes
``bench_c3_replication.{txt,json}`` into ``benchmarks/results``.

Usage::

    PYTHONPATH=src python benchmarks/bench_c3_replication.py
        [--schemas 8] [--threads 16] [--seconds 2.0] [--io-ms 20]
        [--check]
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.replication import ReplicationCluster, ReplicationClient  # noqa: E402

REPLICAS = 4
GATE = 2.5


def schema_source(index):
    # A few types per schema: the digest stays cheap relative to the
    # per-read service floor, so the floor (slot occupancy), not
    # digest CPU, is what the measurement saturates.
    types = "\n".join(
        f"  type C3T{index}x{t} is [ a: int; b: float; c: string; "
        f"d: int; ] end type C3T{index}x{t};" for t in range(3))
    return (f"schema C3S{index} is\ninterface\n{types}\n"
            f"end schema C3S{index};")


def _populate(cluster, n_schemas):
    with cluster.client() as client:
        for index in range(n_schemas):
            reply = client.write(schema_source(index))
    cluster.wait_for_epoch(reply["epoch"], timeout=120.0)
    return reply["epoch"]


def _measure(cluster, read_targets, n_threads, seconds, io_ms):
    """Total digest reads/second across *n_threads* hammering *targets*."""
    counts = [0] * n_threads
    errors = []
    start_barrier = threading.Barrier(n_threads + 1)
    stop = threading.Event()

    def worker(slot):
        handle = read_targets[slot % len(read_targets)]
        client = ReplicationClient(handle.address)
        try:
            start_barrier.wait()
            while not stop.is_set():
                client.read(op="digest", io_ms=io_ms)
                counts[slot] += 1
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(f"reader {slot}: {exc!r}")
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,), daemon=True)
               for slot in range(n_threads)]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    started = time.perf_counter()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    elapsed = time.perf_counter() - started
    if errors:
        raise SystemExit(f"C3: reader failures: {errors[:3]}")
    return {
        "reads": sum(counts),
        "elapsed_seconds": round(elapsed, 4),
        "reads_per_second": round(sum(counts) / elapsed, 2),
    }


def _run_config(replicas, n_schemas, n_threads, seconds, io_ms, root):
    directory = os.path.join(root, f"cluster-{replicas}")
    cluster = ReplicationCluster.open(directory, replicas=replicas)
    try:
        epoch = _populate(cluster, n_schemas)
        targets = cluster.replicas if replicas else [cluster.primary]
        row = _measure(cluster, targets, n_threads, seconds, io_ms)
        statuses = cluster.statuses()
        lag = max((status["lag_seconds"]
                   for name, status in statuses.items()
                   if status["role"] == "replica"), default=0.0)
    finally:
        cluster.close()
        shutil.rmtree(directory, ignore_errors=True)
    row.update({
        "replicas": replicas,
        "read_nodes": max(1, replicas),
        "epoch": epoch,
        "max_lag_seconds": round(lag, 6),
    })
    return row


def run(n_schemas, n_threads, seconds, io_ms, out_dir, check):
    os.makedirs(out_dir, exist_ok=True)
    root = tempfile.mkdtemp(prefix="bench-c3-repl-")
    try:
        rows = [_run_config(replicas, n_schemas, n_threads, seconds,
                            io_ms, root)
                for replicas in (0, REPLICAS)]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    base = rows[0]["reads_per_second"]
    for row in rows:
        row["scaling_vs_single_node"] = round(
            row["reads_per_second"] / base, 2) if base else 0.0
    scaling = rows[-1]["scaling_vs_single_node"]

    lines = ["C3: digest-read capacity, single node vs read replicas",
             f"  schemas: {n_schemas}, client threads: {n_threads}, "
             f"service floor: {io_ms}ms, "
             f"measured window: {seconds}s per config", ""]
    lines.append(f"  {'read nodes':>10} {'reads/s':>9} {'scaling':>8} "
                 f"{'max lag':>9}")
    for row in rows:
        lines.append(
            f"  {row['read_nodes']:>10} {row['reads_per_second']:>9} "
            f"{row['scaling_vs_single_node']:>7}x "
            f"{row['max_lag_seconds']:>8}s")
    lines.append("")
    lines.append(f"  1 -> {REPLICAS} replica read scaling: {scaling}x "
                 f"(acceptance floor: {GATE}x)")
    text = "\n".join(lines)
    print(text)

    payload = {
        "benchmark": "c3_replication",
        "schemas": n_schemas,
        "threads": n_threads,
        "seconds": seconds,
        "io_ms": io_ms,
        "rows": rows,
        "read_scaling": scaling,
    }
    with open(os.path.join(out_dir, "bench_c3_replication.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(out_dir, "bench_c3_replication.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text + "\n")

    if check and scaling < GATE:
        print(f"FAIL: replicated read scaling {scaling}x is below the "
              f"{GATE}x acceptance floor", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--schemas", type=int, default=8,
                        help="schemas committed before measuring")
    parser.add_argument("--threads", type=int, default=16,
                        help="client threads per configuration")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="measured window per configuration")
    parser.add_argument("--io-ms", type=float, default=20.0,
                        help="per-read service-time floor (slot "
                             "occupancy) in milliseconds")
    parser.add_argument("--out", default=os.path.join(HERE, "results"))
    parser.add_argument("--check", action="store_true",
                        help=f"exit non-zero unless read scaling "
                             f">= {GATE}x")
    args = parser.parse_args()
    return run(args.schemas, args.threads, args.seconds, args.io_ms,
               args.out, args.check)


if __name__ == "__main__":
    sys.exit(main())
