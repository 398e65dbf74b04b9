"""Graph-guided counting and capacity estimation.

``count_by_profile`` counts complete identifier grids by dynamic programming
over grid rows: a state is one full row of identifiers whose horizontal
neighbours are red edges, and a transition places a compatible next row
(cellwise blue edges closing quadruples).  Since grids biject with member
blocks, the result equals the member count N(m, n), and any disagreement with
the oracle points at an edge bug.

Capacity (the limit of log2 N(m, n) / (m n)) is bracketed from strip counts:

* point estimate: the second difference of log2 N at the largest computed
  sizes, which cancels the linear boundary terms of log2 N ~ c*mn + a*m + b*n + d;
* upper: minimum over strip heights of the per-column growth rate of free
  strips (free boundaries overcount, so these rates sit above the capacity);
* lower: minimum over strip heights of the per-column growth rate of
  vertically wrapped strips, a conservative companion bracket.

All three are estimates; they are validated against the oracle and internal
ordering only.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .presentation import COMBINED, Presentation, walk
from .oracle import BudgetExceeded

PROFILE_BUDGET = 1 << 22  # row states: size ** (n - w + 1)
PERIODIC_BUDGET = 1 << 24  # tensor entries: size ** m

_EXACT_LIMIT = 1 << 53  # float64 integer exactness


def _require_combined(g: Presentation) -> None:
    if g.kind != COMBINED:
        raise ValueError("counting requires the combined graph")


def _valid_rows(g: Presentation, length: int) -> list[tuple[int, ...]]:
    """All red-edge paths of the given cell count."""
    return list(walk(length, lambda path: g.red_out(path[-1]) if path else g.vertices))


def _row_successors(g: Presentation, p: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Identifier rows q that can sit under row p: q[0] follows a blue edge from
    p[0], and each later q[t] closes the quadruple (p[t-1], p[t], q[t-1], q[t])."""
    completions = g.quadruple_table.completions

    def options(q: list[int]) -> tuple[int, ...]:
        t = len(q)
        return completions(p[t - 1], p[t], q[t - 1]) if t else g.blue_out(p[0])

    return walk(len(p), options)


def count_by_profile(g: Presentation, m: int, n: int, budget: int = PROFILE_BUDGET) -> int:
    """N(m, n) by dynamic programming over rows of the identifier grid."""
    _require_combined(g)
    cs = g.system
    if m < cs.h or n < cs.w:
        raise ValueError(f"size {m}x{n} below window size {cs.h}x{cs.w}")
    width = n - cs.w + 1
    if cs.size**width > budget:
        raise BudgetExceeded(f"{cs.size}^{width} row states exceed budget {budget}")
    counts: dict[tuple[int, ...], int] = {p: 1 for p in _valid_rows(g, width)}
    for _ in range(m - cs.h):
        new: dict[tuple[int, ...], int] = defaultdict(int)
        for p, cnt in counts.items():
            for q in _row_successors(g, p):
                new[q] += cnt
        counts = new
    return sum(counts.values())


def count_periodic(g: Presentation, m: int, n: int, budget: int = PERIODIC_BUDGET) -> list[int]:
    """Counts of height-m strips with vertical wraparound, for widths w..n.

    A wrapped strip corresponds to an extended strip of height m + h - 1 whose
    last h - 1 rows repeat its first h - 1 rows; on the identifier grid that
    adds a blue edge from each bottom-row cell back to its top-row cell.  The
    count is computed as a masked tensor DP over columns of m identifiers.
    """
    _require_combined(g)
    cs = g.system
    if m < cs.h or n < cs.w:
        raise ValueError(f"size {m}x{n} below window size {cs.h}x{cs.w}")
    size = cs.size
    if size == 0:
        return [0] * (n - cs.w + 1)
    if size**m > budget:
        raise BudgetExceeded(f"{size}^{m} tensor entries exceed budget {budget}")

    blue = np.zeros((size, size), dtype=bool)
    red = np.zeros((size, size), dtype=np.float64)
    for u in g.vertices:
        for v in g.blue_out(u):
            blue[u - 1, v - 1] = True
        for v in g.red_out(u):
            red[u - 1, v - 1] = 1.0

    # mask over identifier columns: blue chain down the column, closed at the seam
    shape = (size,) * m
    if m == 1:
        mask = np.diagonal(blue).copy()  # wrap onto itself: blue self-loop
        return _periodic_sweep(mask, red, n - cs.w)
    mask = np.ones(shape, dtype=bool)
    for axis in range(m):
        nxt = (axis + 1) % m
        sh = [1] * m
        sh[axis] = size
        sh[nxt] = size
        if nxt > axis:
            mask &= blue.reshape(sh)
        else:  # seam: axes (m-1, 0), transpose so axis order matches
            mask &= blue.T.reshape(sh)

    return _periodic_sweep(mask, red, n - cs.w)


def _periodic_sweep(mask: np.ndarray, red: np.ndarray, steps: int) -> list[int]:
    v = mask.astype(np.float64)
    counts = [v.sum()]
    for _ in range(steps):
        for _axis in range(mask.ndim):
            # contract the leading axis with red; ndim passes cycle all axes
            v = np.tensordot(v, red, axes=([0], [0]))
        v = np.where(mask, v, 0.0)
        counts.append(v.sum())
    out = []
    for c in counts:
        if c >= _EXACT_LIMIT:
            raise BudgetExceeded("periodic count exceeds float64 exact range")
        out.append(int(round(c)))
    return out


@dataclass(frozen=True)
class CapacityEstimate:
    lower: float
    point: float
    upper: float
    max_m: int
    max_n: int
    strip_heights: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return math.isinf(self.point) and self.point < 0


def capacity_estimate(
    g: Presentation,
    max_m: int,
    max_n: int,
    profile_budget: int = PROFILE_BUDGET,
    periodic_budget: int = PERIODIC_BUDGET,
) -> CapacityEstimate:
    """Bracket the capacity from counts up to max_m x max_n.

    Needs max_n >= w + 1 (for column ratios); the point estimate uses second
    differences when max_m >= h + 1 and max_n >= w + 1, falling back to a
    single column difference on the thinnest strip otherwise.
    """
    _require_combined(g)
    cs = g.system
    neg_inf = float("-inf")
    if cs.size == 0:
        return CapacityEstimate(neg_inf, neg_inf, neg_inf, max_m, max_n, ())
    if max_m < cs.h or max_n < cs.w + 1:
        raise ValueError(
            f"need max_m >= {cs.h} and max_n >= {cs.w + 1}, got {max_m}x{max_n}"
        )
    counts: dict[tuple[int, int], int] = {}

    def count(m: int, n: int) -> int:
        if (m, n) not in counts:
            counts[m, n] = count_by_profile(g, m, n, profile_budget)
        return counts[m, n]

    heights = tuple(range(cs.h, max_m + 1))

    def log2(x: int) -> float:
        return math.log2(x) if x > 0 else neg_inf

    # upper: free-strip growth per column, minimized over heights
    upper = min(
        (log2(count(m, max_n)) - log2(count(m, max_n - 1))) / m
        for m in heights
    )

    # lower: wrapped-strip growth per column, minimized over heights
    lower = neg_inf
    rates = []
    for m in heights:
        per = count_periodic(g, m, max_n, periodic_budget)
        rates.append((log2(per[-1]) - log2(per[-2])) / m)
    if rates:
        lower = min(rates)

    # point: boundary-cancelling second difference of log2 N
    if max_m >= cs.h + 1:
        point = (
            log2(count(max_m, max_n))
            - log2(count(max_m - 1, max_n))
            - log2(count(max_m, max_n - 1))
            + log2(count(max_m - 1, max_n - 1))
        )
    else:
        point = (log2(count(max_m, max_n)) - log2(count(max_m, max_n - 1))) / max_m
    return CapacityEstimate(lower, point, upper, max_m, max_n, heights)
