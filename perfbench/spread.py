#!/usr/bin/env python3
"""Run the benchmark several times on one workload and print each metric's spread.

    python3 perfbench/spread.py --workload hs-bracket --runs 10 [--first-seed 1]

Runs are made one after another, each with its own seed and the run length
of BENCHMARK.json, reporting the end-to-end metrics.  For every metric it
prints the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and it
prints the share of failed operations of every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from fractions import Fraction
import sys
import time

from run import HERE, RUN_SECONDS

RUN = HERE / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares, walls = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(RUN_SECONDS), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false\n{proc.stdout}", file=sys.stderr)
            return 1
        shares.append(Fraction(result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: {walls[-1]:.1f} s wall, failed {result['failed']}/{result['attempted']}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
    print(f"{'metric':40s} {'median':>14s} {'unit':8s} {'spread':>8s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:40s} {med:14.6g} {units[name]:8s} {spread:8.2%}")
    print(f"failed share: {sorted(set(map(str, shares)))} -> {'equal' if len(set(shares)) == 1 else 'DIFFERENT'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
