#!/usr/bin/env python3
"""Reference figures for the README: graph sizes, and oracle against profile DP.

    python3 perfbench/figures.py

For each workload it prints the sizes of the combined graph, then times
``oracle.count_members`` and ``analysis.count_by_profile`` once each at the
workload's count size (at 4x4 for color3-3x3, where the oracle's row DP over
pairs of 6-symbol rows would take hours).
"""

from __future__ import annotations

import sys
import time

from run import HERE, ROOT  # importing run fixes numpy's BLAS threads first

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from ftcs2d import analysis, fileformat, oracle, presentation  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ORACLE_SIZE = {"color3-3x3": (4, 4)}


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def main() -> int:
    for name, make in WORKLOADS.items():
        wl = make()
        cs = fileformat.parse_system(wl.text)
        g = presentation.build(cs)
        print(f"{name}: {cs.size} vertices, {g.n_blue} blue edges, {g.n_red} red edges, "
              f"{len(g.quadruple_table)} quadruples")
        m, n = ORACLE_SIZE.get(name, wl.count)
        budget = wl.count_budget or analysis.PROFILE_BUDGET
        got, t_dp = timed(analysis.count_by_profile, g, m, n, budget)
        want, t_oracle = timed(oracle.count_members, cs, m, n)
        if got != want:
            print(f"  N({m},{n}): count_by_profile {got} != oracle {want}")
            return 1
        print(f"  N({m},{n}) = {got}: count_by_profile {t_dp:.2f} s, oracle.count_members {t_oracle:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
