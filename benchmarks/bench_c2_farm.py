"""C2: committed-writer-session throughput scaling across farm shards.

The single-process service scales *readers* (C1); writers still
serialize on one lock and — more fundamentally on one core — every EES
checks one ever-growing database.  The farm shards ~1000 tenant schemas
across worker processes, so each shard's EES checks only its own
tenants.  This benchmark measures the committed-writer-session rate of
farms of 1, 2, 4, and 8 shards over the *same* tenant population:

* **populate** — ``--tenants`` single-type tenant schemas defined in
  ``delta`` mode (routed by the farm's ``crc32(root) % shards``), plus
  a handful of cross-shard imports so the snapshot-exchange path is
  alive during the measurement;
* **measure** — ``--sessions`` evolution sessions, each adding one
  attribute to a random tenant's base type, committed in ``full``
  check mode (the honest cost of an EES against everything the shard
  holds), dispatched through the farm's thread pool so sessions
  overlap across shards.

The headline is the 1 -> 8 shard throughput factor.  Shards win even on
one core because the full check is superlinear in per-shard database
size; the acceptance gate (``--check``) requires >= 4.0x.

Writes ``bench_c2_farm.{txt,json}`` into ``benchmarks/results``.

Usage::

    PYTHONPATH=src python benchmarks/bench_c2_farm.py
        [--tenants 1000] [--sessions 64] [--check]
"""

import argparse
import json
import os
import random
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.farm import SchemaFarm                            # noqa: E402
from repro.fuzz.history import Op, SessionPlan               # noqa: E402

SHARD_COUNTS = (1, 2, 4, 8)
IMPORTS = 4


def tenant_source(name):
    # Four types of three attributes each: enough facts per tenant that
    # the full EES cost is dominated by database size, not by the fixed
    # per-session overhead (socket round-trip, WAL append, snapshot
    # publication) that sharding cannot reduce.
    types = "\n".join(
        f"  type T{t}{name} is [ a : float; b : int; c : string; ] "
        f"end type T{t}{name};" for t in range(4))
    return (f"schema {name} is\n"
            f"public T0{name};\n"
            f"interface\n{types}\n"
            f"end schema {name};")


def _populate(farm, names):
    """Define every tenant (delta mode) and bind its base-type handle."""
    for name in names:
        farm.define(tenant_source(name))
        farm.bind(name, f"base:{name}",
                  {"kind": "type", "name": f"T0{name}", "schema": name})
    imports = 0
    for importer, imported in zip(names, names[len(names) // 2:]):
        if imports == IMPORTS:
            break
        if farm.shard_of(importer) != farm.shard_of(imported):
            farm.import_schema(importer, imported)
            imports += 1
    return imports


def _measure(shards, names, n_sessions, root):
    directory = os.path.join(root, f"farm-{shards}")
    farm = SchemaFarm.open(directory, shards=shards)
    rng = random.Random(shards * 7919)
    try:
        populate_started = time.perf_counter()
        imports = _populate(farm, names)
        populate_seconds = time.perf_counter() - populate_started

        # Warm every shard's checker once before the clock starts: the
        # first full check after a bulk load pays a one-time index and
        # plan-compilation cost that is not writer-session throughput.
        warmed = set()
        for name in names:
            shard = farm.shard_of(name)
            if shard in warmed:
                continue
            warmed.add(shard)
            reply = farm.session(name, SessionPlan(ops=[Op(
                "add_attribute", {"type": f"base:{name}",
                                  "name": "warmup",
                                  "domain": "builtin:float"})]),
                check_mode="full")
            if not reply["committed"]:
                raise SystemExit(f"C2: warmup session failed on shard "
                                 f"{shard}")
            if len(warmed) == shards:
                break

        plans = []
        for index in range(n_sessions):
            name = rng.choice(names)
            plans.append((name, SessionPlan(ops=[Op("add_attribute", {
                "type": f"base:{name}", "name": f"bench{index}",
                "domain": "builtin:float"})])))
        started = time.perf_counter()
        futures = [farm.submit(name, plan, check_mode="full")
                   for name, plan in plans]
        replies = [future.result() for future in futures]
        elapsed = time.perf_counter() - started
        committed = sum(1 for reply in replies if reply["committed"])
        if committed != n_sessions:
            raise SystemExit(
                f"C2: only {committed}/{n_sessions} sessions committed "
                f"at {shards} shard(s)")
    finally:
        farm.close()
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "shards": shards,
        "tenants": len(names),
        "cross_shard_imports": imports,
        "populate_seconds": round(populate_seconds, 2),
        "sessions": n_sessions,
        "elapsed_seconds": round(elapsed, 4),
        "sessions_per_second": round(n_sessions / elapsed, 2),
    }


def run(n_tenants, n_sessions, out_dir, check):
    os.makedirs(out_dir, exist_ok=True)
    names = [f"Tenant{i}" for i in range(n_tenants)]
    root = tempfile.mkdtemp(prefix="bench-c2-farm-")
    try:
        rows = [_measure(shards, names, n_sessions, root)
                for shards in SHARD_COUNTS]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    base = rows[0]["sessions_per_second"]
    for row in rows:
        row["speedup_vs_1_shard"] = round(
            row["sessions_per_second"] / base, 2)
    speedup = rows[-1]["speedup_vs_1_shard"]

    lines = ["C2: committed-writer-session throughput across farm shards",
             f"  tenants: {n_tenants}, measured sessions per config: "
             f"{n_sessions} (full check mode), cross-shard imports "
             f"alive: {rows[-1]['cross_shard_imports']}", ""]
    lines.append(f"  {'shards':>7} {'sessions/s':>11} {'speedup':>8} "
                 f"{'populate s':>11}")
    for row in rows:
        lines.append(
            f"  {row['shards']:>7} {row['sessions_per_second']:>11} "
            f"{row['speedup_vs_1_shard']:>7}x "
            f"{row['populate_seconds']:>11}")
    lines.append("")
    lines.append(f"  1 -> 8 shard speedup: {speedup}x "
                 f"(acceptance floor: 4.0x)")
    text = "\n".join(lines)
    print(text)

    payload = {
        "benchmark": "c2_farm",
        "tenants": n_tenants,
        "sessions": n_sessions,
        "rows": rows,
        "speedup_1_to_8": speedup,
    }
    with open(os.path.join(out_dir, "bench_c2_farm.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(os.path.join(out_dir, "bench_c2_farm.txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text + "\n")

    if check and speedup < 4.0:
        print(f"FAIL: 1 -> 8 shard speedup {speedup}x is below the "
              f"4.0x acceptance floor", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=1000,
                        help="tenant schemas in the farm population")
    parser.add_argument("--sessions", type=int, default=64,
                        help="measured writer sessions per shard config")
    parser.add_argument("--out", default=os.path.join(HERE, "results"),
                        help="output directory")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if 1->8 speedup < 4.0x")
    args = parser.parse_args()
    sys.exit(run(args.tenants, args.sessions, args.out, args.check))


if __name__ == "__main__":
    main()
