#!/usr/bin/env python3
"""Self-test: the benchmark's reference computations against ftcs2d's oracle.

    python3 perfbench/selftest.py

On small random systems, among them ``h = 1``, ``w = 1``, empty and free
ones, it requires that:

* the reference count equals ``oracle.count_members``, and the reference
  enumeration count equals ``len(oracle.enumerate_members)``;
* the reference window scan gives the same first window as
  ``ConstraintSystem.first_forbidden_window`` on random blocks;
* the reference wrapped counts equal a brute-force count of blocks whose
  rows, continued by their own first ``h - 1`` rows, make a member.

It also checks the literature tables of ``workloads.py`` against the
reference counts.  It exits 1 on the first disagreement.
"""

from __future__ import annotations

import random
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ftcs2d import Alphabet, Block, ConstraintSystem, oracle  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402

SYSTEMS = 60  # random systems, besides the empty and free ones
SEED = 0
WINDOW_SIZES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2)]


def random_systems(rng: random.Random, n: int):
    """(q, h, w, forbidden) tuples: empty and free systems first, then random ones."""
    for q, h, w in [(2, 2, 2), (3, 1, 2), (2, 2, 1)]:
        yield q, h, w, frozenset(ref.all_windows(q, h, w))  # everything forbidden
        yield q, h, w, frozenset()  # nothing forbidden
    for _ in range(n):
        h, w = rng.choice(WINDOW_SIZES)
        q = rng.choice([1, 2, 2, 3]) if h * w <= 4 else 2
        pool = list(ref.all_windows(q, h, w))
        yield q, h, w, frozenset(rng.sample(pool, rng.randrange(len(pool) + 1)))


def check_system(q, h, w, forbidden, rng: random.Random) -> list[str]:
    cs = ConstraintSystem(Alphabet("abc"[:q]), h, w, [Block(f) for f in forbidden])
    label = f"q={q} {h}x{w} |F|={len(forbidden)}"
    problems = []
    for m in range(h, h + 3):
        for n in range(w, w + 3):
            tr = ref.Transfer(forbidden, q, h, w, n)
            got, want = tr.count(m), oracle.count_members(cs, m, n)
            if got != want:
                problems.append(f"{label}: N({m},{n}) reference {got}, oracle {want}")
            if q ** (m * n) <= 1 << 12:
                listed = sum(1 for _ in oracle.enumerate_members(cs, m, n))
                if listed != got:
                    problems.append(f"{label}: {m}x{n} oracle lists {listed}, reference counts {got}")
                wrapped = tr.wrapped(m)[m]
                brute = sum(
                    cs.is_member(Block(rows + rows[: h - 1]))
                    for rows in (tuple(c[r * n : (r + 1) * n] for r in range(m)) for c in product(range(q), repeat=m * n))
                )
                if wrapped != brute:
                    problems.append(f"{label}: wrapped {m}x{n} reference {wrapped}, brute force {brute}")
    for _ in range(20):
        m, n = rng.randint(h, h + 5), rng.randint(w, w + 5)
        rows = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(m))
        got, want = ref.first_forbidden(rows, forbidden, h, w), cs.first_forbidden_window(Block(rows))
        if got != want:
            problems.append(f"{label}: first window of {rows}: reference {got}, program {want}")
    return problems


def check_literature() -> list[str]:
    problems = []
    hs = workloads.hard_square()
    for n, want in workloads.HARD_SQUARE_NN.items():
        got = ref.Transfer(hs.forbidden, 2, 2, 2, n).count(n)
        if got != want:
            problems.append(f"hard square N({n},{n}): reference {got}, literature {want}")
    col = workloads.colourings()
    for n, want in workloads.COLOURINGS_NN.items():
        got = {"2x2 window": ref.Transfer(col.twin_forbidden, 3, 2, 2, n).count(n)}
        if n >= 3:
            got["3x3 window"] = ref.Transfer(col.forbidden, 3, 3, 3, n).count(n)
        for what, value in got.items():
            if value != want:
                problems.append(f"3-colourings N({n},{n}) with a {what}: reference {value}, literature {want}")
    return problems


def main() -> int:
    rng = random.Random(SEED)
    checked = 0
    for q, h, w, forbidden in random_systems(rng, SYSTEMS):
        problems = check_system(q, h, w, forbidden, rng)
        if problems:
            print("\n".join(problems))
            return 1
        checked += 1
    problems = check_literature()
    if problems:
        print("\n".join(problems))
        return 1
    print(f"selftest: {checked} systems and the literature tables agree with the references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
