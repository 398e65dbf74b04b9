#!/usr/bin/env python3
"""Benchmark of ftcs2d's public API on one workload, run as one closed loop.

    python3 perfbench/run.py --workload hs-bracket --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  One process runs one workload: it sets up,
then repeats whole rounds of the same operations, each call waiting for the
last, until the next round would end after ``--seconds``.  Every result is
then checked against the computations of ``reference.py``, which share no
code with the package.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
every round records a span around every call into a layer (see
``tracing.py``), and it reports the per-layer metrics.  Each run also writes
its samples, errors and trace to ``perfbench/out/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # numpy's BLAS, fixed before numpy is first imported
RUN_SECONDS = 36  # the run length of BENCHMARK.json
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ftcs2d" / "__init__.py").is_file():
        print(f"error: no ftcs2d sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from bench import Bench, end_to_end, per_layer, run_rounds
    from checks import verify
    from tracing import Tracer

    wl = WORKLOADS[args.workload]()
    bench = Bench(wl, args.seed)
    tracer = Tracer() if args.trace else None
    bounds = run_rounds(bench, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = verify(bench)

    if args.trace:
        metrics, detail = per_layer(bench, tracer, bounds)
    else:
        metrics = end_to_end(bench, peak_rss_mb)
        detail = {"rounds": [{"seconds": t} for t in bench.round_seconds]}
    detail["samples"] = bench.samples
    result = {
        "correct": not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  blas_threads=BLAS_THREADS, errors=dict(bench.errors), problems=problems, detail=detail)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")

    for msg, n in sorted(bench.errors.items()):
        print(f"failed x{n}: {msg}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"{wl.name}: {len(bench.round_seconds)} rounds, {bench.attempted} operations, {bench.failed} failed")
    for name, (v, unit) in metrics.items():
        print(f"  {name:40s} {v:>16.6g} {unit}")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
