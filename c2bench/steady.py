#!/usr/bin/env python3
"""Steadiness check: runs one workload of the benchmark N times with
consecutive seeds and prints, for every metric, the median, the quartiles
and the spread (q3 - q1) / median next to the metric's bound.

Run from the repository root:

    python3 c2bench/steady.py --workload dense --runs 10 --first-seed 1

The command, run length and bounds come from BENCHMARK.json. Raw results
are written to .c2bench/steady-<workload>-trace<0|1>.json. Exits 1 when a
run fails or an end-to-end spread exceeds its bound.

Once both an untraced (--trace 0) and a traced (--trace 1) set of a
workload are on disk, it also prints the tracing overhead: the traced
runs' median build_s (trace.plain_build_s) against the untraced runs'.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        result["seed"], result["wall_s"] = seed, wall
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed share {share:.6f}, correct {result['correct']}", file=sys.stderr)

    out = Path(".c2bench") / f"steady-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    steady = all(r["correct"] for r in results)
    print(f"{'metric':<30} {'unit':<7} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            print(f"{name:<30} missing in some runs")
            steady = False
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0
        bound = bounds.get(name)
        ratio = f"{spread / bound:12.2f}" if bound else f"{'':>12}"
        print(f"{name:<30} {units.get(name, ''):<7} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound if bound else '':>6} {ratio}")
        if bound and spread > bound:
            steady = False
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}; wall per run: "
          f"{statistics.median(r['wall_s'] for r in results):.1f} s median")
    print_tracing_overhead(args.workload)
    sys.exit(0 if steady else 1)


def print_tracing_overhead(workload):
    sets = [Path(".c2bench") / f"steady-{workload}-trace{t}.json" for t in (0, 1)]
    if not all(p.exists() for p in sets):
        return
    plain, traced = (json.loads(p.read_text()) for p in sets)
    untraced = statistics.median(r["metrics"]["build_s"]["value"] for r in plain)
    with_spans = statistics.median(r["metrics"]["trace.plain_build_s"]["value"] for r in traced)
    print(f"tracing overhead on build_s: {(with_spans / untraced - 1) * 100:+.1f}% "
          f"(traced median {with_spans:.4g} s over {len(traced)} runs, "
          f"untraced median {untraced:.4g} s over {len(plain)} runs)")


if __name__ == "__main__":
    main()
