"""Graph-guided counting and capacity estimation.

Every count is one sweep over a grid of identifiers that places one
identifier at a time, line by line: rows of n - w + 1 identifiers for
``count_by_profile``, columns of m identifiers for ``count_periodic``.  The
cell d under b and right of c is any of ``Presentation.completions(b, c)``,
the blue successors of b that are red successors of c; the corner a adds no
condition.  Grids biject with member blocks, so the totals are member counts.

* States.  A state is the frontier of a partial grid, one entry per cell of
  a line, and a dict maps it to its number of partial grids, in exact Python
  integers.  The sweep starts under a wildcard line (0, under which every
  identifier fits); the sum at the end of line k is the count at k lines.
* Lumping.  A frontier cell the sweep has passed is read only once more, by
  the cell under it (rows) or right of it (columns), and only through its
  successors of the colour that joins lines.  So it is kept as its class, the
  first identifier with the same such successors (``blue_class`` for rows,
  ``red_class`` for columns).  The cell just placed is kept whole, since the
  next cell of its line also reads its other colour; a line's last cell is
  lumped as it is placed.
* Why it is exact.  What a step may place depends on a state only through
  the entries it reads, and on each only through the successors kept.  So
  the partial grids merged into one state have the same completions, one for
  one, and adding their counts changes no total.
* Wrapped columns.  The last cell of a column also needs a blue edge back to
  the first (for m = 1, a blue self-loop), so the sweep holds the first cell
  whole until it places the last, and checks the edge there.  Line k totals
  the height-m strips of width w + k - 1 with vertical wraparound.
* Budget.  The live states times the line length may not exceed the budget
  after any cell is placed.  The check runs as states are built, and
  ``BudgetExceeded`` names the operator and gives the live states.

Capacity (the limit of log2 N(m, n) / (m n)) is bracketed from strip counts,
taken from one row sweep per width (max_n and max_n - 1) and one wrapped
sweep per height:

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

from .presentation import Presentation
from .oracle import BudgetExceeded

PROFILE_BUDGET = 1 << 22  # rows: live states times row length, at every cell
PERIODIC_BUDGET = 1 << 24  # wrapped columns: live states times height, at every cell


def _check_size(g: Presentation, m: int, n: int) -> None:
    cs = g.system
    if m < cs.h or n < cs.w:
        raise ValueError(f"size {m}x{n} below window size {cs.h}x{cs.w}")


def _sweep(g: Presentation, length: int, lines: int, wrapped: bool, budget: int) -> list[int]:
    """The number of identifier grids of 1 .. ``lines`` lines of ``length`` cells.

    A state packs its cells into one int, ``bits`` bits per cell, the first
    lowest; a wrapped column's held first cell takes one more field above.  A
    cell d is placed from the cell p of the previous line at its position and
    the cell b before it in its line.
    """
    layer = f"wrapped column operator of height {length}" if wrapped else f"row operator of width {length}"
    cap = budget // length  # live states allowed
    completions, blue, red, blue_in = g.completions, g.blue.get, g.red.get, g.blue_in
    # rows: p above and b on the left; wrapped columns: p on the left and b above
    rep, lead, back = (g.red_class, red, blue) if wrapped else (g.blue_class, blue, red)

    def fits(p: int, b: int) -> tuple[int, ...]:
        return back(b, ()) if not p else completions(b, p) if wrapped else completions(p, b)

    every = tuple(g.vertices)
    bits = len(every).bit_length()
    mask = (1 << bits) - 1

    # The moves a step adds to a state depend only on the fields k it reads: each
    # kind of cell makes them once per k, relative to k, to clear k, lump b and place d.
    def first(k: int) -> list[int]:  # reads p; 0 is the wildcard line
        ds = lead(k, ()) if k else every
        if length == 1:  # also the last cell
            return [rep[d] - k for d in ds if not wrapped or d in blue_in[d]]  # a blue self-loop
        return [d + (d << length * bits if wrapped else 0) - k for d in ds]  # wrapped: and hold d

    def inner(k: int) -> list[int]:  # reads b, p
        b = k & mask
        return [rep[b] - k + (d << bits) for d in fits(k >> bits, b)]

    def last(k: int) -> list[int]:  # reads b, p
        b = k & mask
        return [rep[b] - k + (rep[d] << bits) for d in fits(k >> bits, b)]

    def closing(k: int) -> list[int]:  # reads b, p and the held first cell f: d -> f is blue
        b, p, into = k & mask, k >> bits & mask, blue_in[k >> 2 * bits]
        return [rep[b] - k + (rep[d] << bits) for d in (completions(b, p) if p else blue(b, ())) if d in into]

    # per kind of cell: its moves, the moves made so far, the fields it reads
    kinds = (first, {}, mask), (inner, {}, (1 << 2 * bits) - 1), (closing if wrapped else last, {}, -1)
    states = {0: 1}
    totals = []
    for _ in range(lines):
        for j in range(length):
            make, made, fields = kinds[0 if not j else 2 if j == length - 1 else 1]
            shift = max(j - 1, 0) * bits
            new: dict[int, int] = defaultdict(int)
            for s, c in states.items():
                k = s >> shift & fields
                moves = made.get(k)
                if moves is None:
                    moves = made[k] = make(k)
                for move in moves:
                    new[s + (move << shift)] += c
                if len(new) > cap:
                    raise BudgetExceeded(f"{layer}: {len(new)} live states of {length} cells exceed budget {budget}")
            states = new
        totals.append(sum(states.values()))
    return totals


def count_by_profile(g: Presentation, m: int, n: int, budget: int = PROFILE_BUDGET) -> int:
    """N(m, n) by a sweep over rows of the identifier grid."""
    _check_size(g, m, n)
    cs = g.system
    return _sweep(g, n - cs.w + 1, m - cs.h + 1, False, budget)[-1]


def count_periodic(g: Presentation, m: int, n: int, budget: int = PERIODIC_BUDGET) -> list[int]:
    """Counts of height-m strips with vertical wraparound, for widths w..n.

    A wrapped strip is a strip of height m + h - 1 whose last h - 1 rows repeat
    its first h - 1: its identifier columns are closed blue cycles of m cells.
    """
    _check_size(g, m, n)
    return _sweep(g, m, n - g.system.w + 1, True, budget)


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
    g: Presentation, max_m: int, max_n: int,
    profile_budget: int = PROFILE_BUDGET, periodic_budget: int = PERIODIC_BUDGET,
) -> CapacityEstimate:
    """Bracket the capacity from counts up to max_m x max_n.

    Needs max_n >= w + 1 (for column ratios); the point estimate uses second
    differences when max_m >= h + 1 and max_n >= w + 1, falling back to a
    single column difference on the thinnest strip otherwise.
    """
    cs = g.system
    neg_inf = float("-inf")
    if max_m < cs.h or max_n < cs.w + 1:
        raise ValueError(f"need max_m >= {cs.h} and max_n >= {cs.w + 1}, got {max_m}x{max_n}")
    if cs.size == 0:
        return CapacityEstimate(neg_inf, neg_inf, neg_inf, max_m, max_n, ())
    heights = tuple(range(cs.h, max_m + 1))
    # wide[k], narrow[k]: N(h + k, max_n), N(h + k, max_n - 1), each from one row sweep
    wide, narrow = (_sweep(g, n - cs.w + 1, len(heights), False, profile_budget) for n in (max_n, max_n - 1))

    def log2(x: int) -> float:
        return math.log2(x) if x > 0 else neg_inf

    # upper: free-strip growth per column, minimized over heights
    upper = min((log2(wide[k]) - log2(narrow[k])) / m for k, m in enumerate(heights))

    # lower: wrapped-strip growth per column, minimized over heights
    wrapped = (count_periodic(g, m, max_n, periodic_budget) for m in heights)
    lower = min((log2(per[-1]) - log2(per[-2])) / m for m, per in zip(heights, wrapped))

    # point: boundary-cancelling second difference of log2 N
    if max_m >= cs.h + 1:
        point = log2(wide[-1]) - log2(wide[-2]) - log2(narrow[-1]) + log2(narrow[-2])
    else:
        point = (log2(wide[-1]) - log2(narrow[-1])) / max_m
    return CapacityEstimate(lower, point, upper, max_m, max_n, heights)
