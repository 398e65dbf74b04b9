"""Graph-guided counting and capacity estimation.

Every count runs over one sparse transfer operator.  Its states are the
identifier sequences of one length that follow one edge colour; the
successors of a state are the sequences that follow the same colour and are
joined to it cell by cell by the other colour, so that each 2x2 of
identifiers closes a quadruple.  The operator is enumerated once with
``presentation.walk``, stored as successor index lists, and one sweep in exact
Python integers gives the totals of every step at once:

* rows: red paths of n - w + 1 identifiers, linked by blue edges; step k
  totals N(h + k, n).  Since grids biject with member blocks,
  ``count_by_profile`` equals the member count, and any disagreement with the
  oracle points at an edge bug.
* wrapped columns: blue paths of m identifiers closed into a cycle (for
  m = 1, a blue self-loop), linked by red edges; step k totals the height-m
  strips of width w + k with vertical wraparound (``count_periodic``).

A budget caps the operator actually built: the identifiers stored in its
states plus its successor entries.  It is checked while the operator is
enumerated, and ``BudgetExceeded`` names the operator and the limit.

Capacity (the limit of log2 N(m, n) / (m n)) is bracketed from strip counts,
taken from one row operator per width (max_n and max_n - 1) and one wrapped
operator per height:

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
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from .presentation import Presentation, walk
from .oracle import BudgetExceeded

PROFILE_BUDGET = 1 << 22  # row operator: stored identifiers + successor entries
PERIODIC_BUDGET = 1 << 24  # wrapped column operator: the same


def _check_size(g: Presentation, m: int, n: int) -> None:
    cs = g.system
    if m < cs.h or n < cs.w:
        raise ValueError(f"size {m}x{n} below window size {cs.h}x{cs.w}")


def _operator(g: Presentation, length: int, wrapped: bool):
    """The states of the row operator (or the wrapped column one), and a state's successors.

    Rows: states are red paths, and a successor t sits under s, with t[0]
    blue from s[0] and t[i] closing (s[i-1], s[i], t[i-1], t[i]), that is,
    blue from s[i] and red from t[i-1].  Wrapped columns: states are closed
    blue cycles, and t sits right of s, with t[0] red from s[0] and t[i]
    closing (s[i-1], t[i-1], s[i], t[i]): blue from t[i-1], red from s[i].
    """
    completions = g.completions
    if not wrapped:

        def successors(s: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            def options(t: list[int]) -> Iterable[int]:
                i = len(t)
                return completions(s[i], t[i - 1]) if i else g.blue_out(s[0])

            return walk(length, options)

        return walk(length, lambda s: g.red_out(s[-1]) if s else g.vertices), successors

    blue_in: dict[int, set[int]] = defaultdict(set)
    for u in g.vertices:
        for v in g.blue_out(u):
            blue_in[v].add(u)

    def closed(after: Iterable[int], t: list[int]) -> Iterable[int]:
        # the last cell of a column has a blue edge back to its first (or to itself)
        return [d for d in after if d in blue_in[t[0] if t else d]] if len(t) == length - 1 else after

    def successors(s: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        def options(t: list[int]) -> Iterable[int]:
            i = len(t)
            return closed(completions(t[i - 1], s[i]) if i else g.red_out(s[0]), t)

        return walk(length, options)

    return walk(length, lambda s: closed(g.blue_out(s[-1]) if s else g.vertices, s)), successors


def _totals(g: Presentation, length: int, wrapped: bool, steps: int, budget: int) -> list[int]:
    """Totals of the chains of 1 .. steps + 1 states of one transfer operator."""
    layer = f"wrapped column operator of height {length}" if wrapped else f"row operator of width {length}"
    used = 0

    def charge(k: int) -> None:
        nonlocal used
        used += k
        if used > budget:
            raise BudgetExceeded(f"{layer}: {used} stored identifiers and successor entries exceed budget {budget}")

    states, successors = _operator(g, length, wrapped)
    index: dict[tuple[int, ...], int] = {}
    for s in states:
        charge(length)
        index[s] = len(index)
    if not steps:
        return [len(index)]
    succ = []  # successor index lists, one machine word per entry
    for s in index:
        succ.append(array("L", map(index.__getitem__, successors(s))))
        charge(len(succ[-1]))
    v = [1] * len(succ)  # v[k]: chains of the current length starting at state k
    totals = [len(v)]
    for _ in range(steps):
        v = [sum(map(v.__getitem__, row)) for row in succ]
        totals.append(sum(v))
    return totals


def count_by_profile(g: Presentation, m: int, n: int, budget: int = PROFILE_BUDGET) -> int:
    """N(m, n) by a sweep over rows of the identifier grid."""
    _check_size(g, m, n)
    cs = g.system
    return _totals(g, n - cs.w + 1, False, m - cs.h, budget)[-1]


def count_periodic(g: Presentation, m: int, n: int, budget: int = PERIODIC_BUDGET) -> list[int]:
    """Counts of height-m strips with vertical wraparound, for widths w..n.

    A wrapped strip corresponds to an extended strip of height m + h - 1 whose
    last h - 1 rows repeat its first h - 1 rows; on the identifier grid that
    adds a blue edge from each bottom-row cell back to its top-row cell, so
    its columns are closed blue cycles of m identifiers.
    """
    _check_size(g, m, n)
    return _totals(g, m, True, n - g.system.w, budget)


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
    cs = g.system
    neg_inf = float("-inf")
    if cs.size == 0:
        return CapacityEstimate(neg_inf, neg_inf, neg_inf, max_m, max_n, ())
    if max_m < cs.h or max_n < cs.w + 1:
        raise ValueError(
            f"need max_m >= {cs.h} and max_n >= {cs.w + 1}, got {max_m}x{max_n}"
        )
    heights = tuple(range(cs.h, max_m + 1))
    # wide[k], narrow[k]: N(h + k, max_n), N(h + k, max_n - 1), each from one row operator
    wide, narrow = (
        _totals(g, n - cs.w + 1, False, max_m - cs.h, profile_budget) for n in (max_n, max_n - 1)
    )

    def log2(x: int) -> float:
        return math.log2(x) if x > 0 else neg_inf

    # upper: free-strip growth per column, minimized over heights
    upper = min((log2(wide[k]) - log2(narrow[k])) / m for k, m in enumerate(heights))

    # lower: wrapped-strip growth per column, minimized over heights
    rates = []
    for m in heights:
        per = count_periodic(g, m, max_n, periodic_budget)
        rates.append((log2(per[-1]) - log2(per[-2])) / m)
    lower = min(rates)

    # point: boundary-cancelling second difference of log2 N
    if max_m >= cs.h + 1:
        point = log2(wide[-1]) - log2(wide[-2]) - log2(narrow[-1]) + log2(narrow[-2])
    else:
        point = (log2(wide[-1]) - log2(narrow[-1])) / max_m
    return CapacityEstimate(lower, point, upper, max_m, max_n, heights)
