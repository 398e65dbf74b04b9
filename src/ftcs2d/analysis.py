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
* Lumping.  Every field of a state holds a class: the first identifier that
  agrees with the cell in all that later steps read of it.  A frontier cell
  the sweep has passed is read only once more, by the cell under it (rows)
  or right of it (columns), and only through its successors of the colour
  that joins lines, so it is kept as ``blue_class`` (rows) or ``red_class``
  (columns); a line's last cell is lumped to it as soon as it is placed.  Any
  other cell just placed is read by the next cell of its line through its
  successors of the other colour, and is then lumped; so until then it is
  kept as ``pair_class``, which agrees on the successors of both colours.
* Why it is exact.  What a step may place depends on a state only through
  the entries it reads, and on each only through what its class agrees on:
  ``completions`` and the one-colour successors that ``fits`` falls back to
  read only successors, the lump of a ``pair_class`` cell is the lump of the
  cell, and ``closing`` reads a held cell only through its top overlap.  So
  the partial grids merged into one state have the same completions, one for
  one, and adding their counts changes no total.
* Wrapped columns.  The last cell d of a column needs a blue edge d -> f to
  its first cell f: d's bottom overlap is f's top one (for m = 1, a blue
  self-loop, ``has_blue(d, d)``).  That is all the column reads of f again,
  so f is held until then as ``top_class``, the first identifier with its
  top overlap.  Line k totals the height-m strips of width w + k - 1 with
  vertical wraparound.
* Replay.  The moves a step adds to a state are a function of the state's
  key, so a line that starts on the same set of states as another makes the
  same transitions, only with other counts.  The first line starts under the
  wildcard and runs as a dict step.  A later line is compiled into tables:
  per cell, each new state's first source and the other (new, source) pairs,
  by position in a list of counts.  If it ends on the set it started from,
  every later line replays its tables on the counts alone.  Otherwise the next
  line is compiled afresh, but a last line that has not settled stays a dict
  step, so sweeps of one or two lines build no tables.  The sets settle: the
  last k lines of a grid are a grid of k lines with the same last line, so the
  states ending line k + 1 are among those ending line k.
* Budget.  The live states times the line length may not exceed the budget
  after any cell is placed.  The check runs as states are built, in dict
  order also when a line is compiled, and a replayed line has the states of
  the compiled line that passed it.  ``BudgetExceeded`` names the operator
  and gives the live states, in its text and as ``layer``, ``count`` and
  ``limit``.

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

# a compiled line, per cell: the first source of each new state, then the new
# states and the sources of the other moves, all as positions in lists of counts
Tables = list[tuple[list[int], list[int], list[int]]]


def _check_size(g: Presentation, m: int, n: int) -> None:
    cs = g.system
    if m < cs.h or n < cs.w:
        raise ValueError(f"size {m}x{n} below window size {cs.h}x{cs.w}")


def _sweep(g: Presentation, length: int, lines: int, wrapped: bool, budget: int) -> list[int]:
    """The number of identifier grids of 1 .. ``lines`` lines of ``length`` cells.

    A state packs its cells into one int, ``bits`` bits per cell, the first
    lowest; a wrapped column's held first cell takes one more field above.  A
    cell d is placed from the cell p of the previous line at its position and
    the cell b before it in its line, each read from its class.
    """
    layer = f"wrapped column operator of height {length}" if wrapped else f"row operator of width {length}"
    cap = budget // length  # live states allowed

    def refused(live: int) -> BudgetExceeded:
        message = f"{layer}: {live} live states of {length} cells exceed budget {budget}"
        return BudgetExceeded(message, layer=layer, count=live, limit=budget)

    completions, blue, red = g.completions, g.blue.get, g.red.get
    bottom, top = g.system.overlaps.bottom, g.system.overlaps.top
    pair, held = g.pair_class, g.top_class  # the just-placed cell; a wrapped column's first cell
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
            return [rep[d] - k for d in ds if not wrapped or g.has_blue(d, d)]  # a blue self-loop
        return [pair[d] + (held[d] << length * bits if wrapped else 0) - k for d in ds]  # wrapped: and hold d

    def inner(k: int) -> list[int]:  # reads b, p
        b = k & mask
        return [rep[b] - k + (pair[d] << bits) for d in fits(k >> bits, b)]

    def last(k: int) -> list[int]:  # reads b, p
        b = k & mask
        return [rep[b] - k + (rep[d] << bits) for d in fits(k >> bits, b)]

    def closing(k: int) -> list[int]:  # reads b, p and the held first cell f: d -> f is blue
        b, p, f = k & mask, k >> bits & mask, top[k >> 2 * bits]
        return [rep[b] - k + (rep[d] << bits) for d in (completions(b, p) if p else blue(b, ())) if bottom[d] == f]

    # per kind of cell: its moves, the moves made so far, the fields it reads
    kinds = (first, {}, mask), (inner, {}, (1 << 2 * bits) - 1), (closing if wrapped else last, {}, -1)
    ints: list[int] = []  # shared position ints, so that tables hold references, not new ints

    def compile_line(order: list[int]) -> tuple[Tables, list[int]]:
        """Tables for a line from the states ``order``, and the states it ends on.

        A cell's tables give, for each new state in order of first appearance, the
        position of its first source, and then the (new, source) position pairs
        that add to it.  The states are walked in the order a dict step walks them,
        so the budget trips at the same state with the same count.
        """
        cells = []
        ints.extend(range(len(ints), len(order)))
        for j in range(length):
            make, made, fields = kinds[0 if not j else 2 if j == length - 1 else 1]
            shift = max(j - 1, 0) * bits
            index: dict[int, int] = {}  # new state: its position
            firsts: list[int] = []
            dests: list[int] = []
            sources: list[int] = []
            for s, p in zip(order, ints):
                k = s >> shift & fields
                moves = made.get(k)
                if moves is None:
                    moves = made[k] = make(k)
                for move in moves:
                    t = s + (move << shift)
                    d = index.get(t)
                    if d is None:
                        index[t] = len(firsts)
                        firsts.append(p)
                    else:
                        dests.append(d)
                        sources.append(p)
                if len(index) > cap:
                    raise refused(len(index))
            order = list(index)
            del index
            ints.extend(range(len(ints), len(order)))
            cells.append((firsts, list(map(ints.__getitem__, dests)), sources))
        return cells, order

    def replay(cells: Tables, vals: list[int]) -> list[int]:
        for firsts, dests, sources in cells:
            new = list(map(vals.__getitem__, firsts))
            for d, s in zip(dests, sources):
                new[d] += vals[s]
            vals = new
        return vals

    def settled(cells: Tables, start: list[int], end: list[int]) -> Tables | None:
        """The tables of a line that ends on the states it starts from, made to
        read its first cell at the end positions, where replays keep the values;
        None for any other line."""
        at = dict(zip(end, ints))  # each end state's position
        if len(at) != len(start) or not all(map(at.__contains__, start)):
            return None
        firsts, dests, sources = cells[0]
        pos = list(map(at.__getitem__, start))
        cells[0] = list(map(pos.__getitem__, firsts)), dests, list(map(pos.__getitem__, sources))
        return cells

    states = {0: 1}
    totals = []
    stable = None  # a compiled line that ends on the states it starts from
    for i in range(lines):
        if stable:
            vals = replay(stable, vals)
            totals.append(sum(vals))
        elif 0 < i < lines - 1:
            keys, vals = list(states), list(states.values())
            del states  # freed before the tables are built
            cells, end = compile_line(keys)
            vals = replay(cells, vals)
            totals.append(sum(vals))
            stable = settled(cells, keys, end)
            if not stable:
                states = dict(zip(end, vals))
            del keys, end
        else:  # the first line, under the wildcard, or the last one before the frontier settles
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
                        raise refused(len(new))
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
    if not wide[-1]:  # no max_m x max_n member, so no growth to estimate
        return CapacityEstimate(neg_inf, neg_inf, neg_inf, max_m, max_n, heights)

    def rate(a: int, b: int) -> float:
        """log2(a / b), the growth from b members to a: -inf for a = 0 (and b = 0 forces a = 0)."""
        return math.log2(a) - math.log2(b) if a else neg_inf

    # upper: free-strip growth per column, minimized over heights
    upper = min(rate(wide[k], narrow[k]) / m for k, m in enumerate(heights))

    # lower: wrapped-strip growth per column, minimized over heights
    wrapped = (count_periodic(g, m, max_n, periodic_budget) for m in heights)
    lower = min(rate(per[-1], per[-2]) / m for m, per in zip(heights, wrapped))

    # point: boundary-cancelling second difference of log2 N
    if max_m >= cs.h + 1:
        point = math.log2(wide[-1]) - math.log2(wide[-2]) - math.log2(narrow[-1]) + math.log2(narrow[-2])
    else:
        point = rate(wide[-1], narrow[-1]) / max_m
    return CapacityEstimate(lower, point, upper, max_m, max_n, heights)
