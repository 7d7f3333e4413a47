#!/usr/bin/env python3
"""Steadiness of the ledger: two separate sets of runs of every workload.

Usage (from the repository root)::

    python3 perfbench/steady.py                 # 2 sets x 10 seeds x 3 workloads
    python3 perfbench/steady.py --runs 5 --workloads dist-fresh

Set A runs seeds ``1..N`` and set B seeds ``N+1..2N``, one ``run.py``
process each.  The two sets are interleaved run by run, alternating which
runs first (A1, B1, B2, A2, A3, B3, ...), so that a drift of the machine's
speed falls on both.  For every end-to-end metric it prints each set's
median and quartiles, the interquartile spread as a share of the median,
the shift between the two medians in the metric's worse direction (the
larger of B against A and A against B), the spread over both sets
together, and the metric's bound from ``BENCHMARK.json``.  A metric passes
when both sets' spreads and the shift stay within the bound; the
failed-operation shares of the two sets must be equal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_one(workload: str, seed: int, seconds: int, command) -> dict:
    started = time.time()
    completed = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if completed.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{completed.stderr[-3000:]}")
    result = json.loads(completed.stdout.splitlines()[-1])
    result["wall_s"] = time.time() - started
    print(f"  {workload} seed {seed}: {result['wall_s']:.1f}s", file=sys.stderr, flush=True)
    return result


def summary(values) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--workloads", help="comma-separated subset")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds_a = range(1, args.runs + 1)
    seeds_b = range(args.runs + 1, 2 * args.runs + 1)
    sets = {(label, workload): [] for label in "AB" for workload in workloads}
    for workload in workloads:
        for index, (seed_a, seed_b) in enumerate(zip(seeds_a, seeds_b)):
            pair = (("A", seed_a), ("B", seed_b))
            for label, seed in pair if index % 2 == 0 else pair[::-1]:
                sets[label, workload].append(
                    run_one(workload, seed, bench["run_seconds"], bench["command"]))
    ok = True
    for workload in workloads:
        a, b = sets["A", workload], sets["B", workload]
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in (a, b)]
        walls = [r["wall_s"] for r in a + b]
        print(f"\n{workload}: seeds {seeds_a.start}-{seeds_a.stop - 1} (A) and "
              f"{seeds_b.start}-{seeds_b.stop - 1} (B); failed share A {shares[0]:.4f}, "
              f"B {shares[1]:.4f}; wall per run {statistics.median(walls):.1f}s")
        print(f"{'metric':16s} {'A median':>10s} {'A q1..q3':>19s} {'A spr':>6s} "
              f"{'B median':>10s} {'B q1..q3':>19s} {'B spr':>6s} {'shift':>6s} "
              f"{'all spr':>7s} {'bound':>6s}")
        ok &= shares[0] == shares[1]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            ma, qa1, qa3, sa = summary([r["metrics"][name]["value"] for r in a])
            mb, qb1, qb3, sb = summary([r["metrics"][name]["value"] for r in b])
            spread_all = summary([r["metrics"][name]["value"] for r in a + b])[3]
            sign = 1 if metric["better"] == "lower" else -1
            shift = max((mb - ma) / ma * sign, (ma - mb) / mb * sign)
            bound = metric["bound"]
            passed = shift <= bound and sa <= bound and sb <= bound
            ok &= passed
            print(f"{name:16s} {ma:10.3f} {qa1:9.3f}..{qa3:<9.3f} {sa:6.3f} "
                  f"{mb:10.3f} {qb1:9.3f}..{qb3:<9.3f} {sb:6.3f} {shift:6.3f} "
                  f"{spread_all:7.3f} {bound:6.3f}{'' if passed else '  FAIL'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
