"""Generating members of the constrained system from its two-colour graph.

A target m x n block is encoded by a grid of window identifiers s(i, j),
indexed by the right-bottom coordinate of each h x w window (h <= i <= m,
w <= j <= n).  Cells are filled one at a time:

* the very first cell (h, w) may take any vertex;
* a first-row cell (h, j) follows a red edge from s(h, j-1);
* a first-column cell (i, w) follows a blue edge from s(i-1, w);
* an interior cell follows a blue edge from s(i-1, j) and a red edge from
  s(i, j-1), which closes a compatible quadruple with its three upper-left
  neighbours.

Greedy filling can dead-end for general forbidden sets, so the search
backtracks chronologically over the schedule; with backtracking exhausted the
target size is genuinely unrealizable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .blocks import Block, ConstraintSystem
from .presentation import Presentation, path_strips, walk


class DeadEnd(RuntimeError):
    """A cell had no candidates and backtracking was disabled or exhausted locally."""


class NotRealizable(RuntimeError):
    """Exhaustive backtracking proved no block of the requested size exists."""


ROW_MAJOR = "row-major"
COL_MAJOR = "col-major"
INTERLEAVED = "interleaved"
SCHEDULES = (ROW_MAJOR, COL_MAJOR, INTERLEAVED)


@dataclass
class GenerationPolicy:
    schedule: str = ROW_MAJOR
    chooser: str = "random"  # "random" (seeded shuffle) or "ordered" (ascending ids)
    backtracking: bool = True
    seed: int = 0


@dataclass
class GenerationStats:
    steps: int = 0
    backtracks: int = 0


class IdentifierGrid:
    """Partial map from right-bottom window coordinates to vertex identifiers."""

    def __init__(self, system: ConstraintSystem, m: int, n: int):
        if m < system.h or n < system.w:
            raise ValueError(f"target {m}x{n} below window size {system.h}x{system.w}")
        self.system = system
        self.m = m
        self.n = n
        self.cells: dict[tuple[int, int], int] = {}

    @property
    def grid_rows(self) -> int:
        return self.m - self.system.h + 1

    @property
    def grid_cols(self) -> int:
        return self.n - self.system.w + 1

    def _check(self, i: int, j: int) -> None:
        if not (self.system.h <= i <= self.m and self.system.w <= j <= self.n):
            raise ValueError(f"cell ({i},{j}) outside identifier grid of {self.m}x{self.n} target")

    def get(self, i: int, j: int) -> int | None:
        self._check(i, j)
        return self.cells.get((i, j))

    def set(self, i: int, j: int, k: int) -> None:
        self._check(i, j)
        self.system.block(k)  # range check
        self.cells[(i, j)] = k

    def unset(self, i: int, j: int) -> None:
        self.cells.pop((i, j), None)

    def filled(self, i: int, j: int) -> bool:
        return (i, j) in self.cells

    def complete(self) -> bool:
        return len(self.cells) == self.grid_rows * self.grid_cols

    def resize(self, m: int, n: int) -> None:
        """Grow the target size mid-process; filled cells stay valid because
        every constraint only references smaller coordinates."""
        if m < self.m or n < self.n:
            raise ValueError("identifier grids only grow")
        self.m = m
        self.n = n

    def to_block(self) -> Block:
        """Stitch window contents into the full block, checking overlap agreement."""
        if not self.complete():
            raise ValueError("grid is not completely filled")
        cs = self.system
        out: list[list[int | None]] = [[None] * self.n for _ in range(self.m)]
        for (i, j), k in self.cells.items():
            for r, win_row in enumerate(cs.block(k).rows, i - cs.h):
                row = out[r]
                for c, val in enumerate(win_row, j - cs.w):
                    old = row[c]
                    if old is None:
                        row[c] = val
                    elif old != val:
                        raise AssertionError(
                            f"overlap disagreement at {(r + 1, c + 1)}: {old} vs {val}"
                        )
        return Block(tuple(map(tuple, out)))


def case_of(i: int, j: int, h: int, w: int) -> int:
    """1 when the cell lies on the first grid row or column, else 2."""
    return 1 if i == h or j == w else 2


def schedule_cells(schedule: str, m: int, n: int, h: int, w: int) -> list[tuple[int, int]]:
    """Fill order for the identifier grid; every order keeps each cell after
    its upper/left predecessors."""
    rows = range(h, m + 1)
    cols = range(w, n + 1)
    if schedule == ROW_MAJOR:
        return [(i, j) for i in rows for j in cols]
    if schedule == COL_MAJOR:
        return [(i, j) for j in cols for i in rows]
    if schedule == INTERLEAVED:
        # column pairs, row-major inside each pair
        order = []
        for j0 in range(w, n + 1, 2):
            pair = [j for j in (j0, j0 + 1) if j <= n]
            order.extend((i, j) for i in rows for j in pair)
        return order
    raise ValueError(f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")


def candidates(g: Presentation, grid: IdentifierGrid, i: int, j: int) -> tuple[int, ...]:
    """Identifiers that may occupy cell (i, j) given its filled predecessors."""
    cs = g.system
    h, w = cs.h, cs.w
    grid._check(i, j)
    if i == h and j == w:
        return tuple(g.vertices)
    if i == h:
        left = grid.get(i, j - 1)
        if left is None:
            raise ValueError(f"predecessor ({i},{j - 1}) unfilled")
        return g.red_out(left)
    if j == w:
        up = grid.get(i - 1, j)
        if up is None:
            raise ValueError(f"predecessor ({i - 1},{j}) unfilled")
        return g.blue_out(up)
    up, left = grid.get(i - 1, j), grid.get(i, j - 1)
    if up is None or left is None:
        raise ValueError(f"predecessors of ({i},{j}) unfilled")
    return g.completions(up, left)


def _fillings(
    g: Presentation,
    grid: IdentifierGrid,
    order: list[tuple[int, int]],
    policy: GenerationPolicy,
    stats: GenerationStats | None,
) -> Iterator[tuple[int, ...]]:
    """Every way of filling the ``order`` cells, depth first; the grid holds
    each filling while it is yielded."""
    rng = random.Random(policy.seed)

    def options(path: list[int]) -> list[int]:
        if path:
            grid.set(*order[len(path) - 1], path[-1])
            if stats:
                stats.steps += 1
        i, j = order[len(path)]
        cand = list(candidates(g, grid, i, j))
        if policy.chooser == "random":
            rng.shuffle(cand)
        if not cand:
            if not policy.backtracking:
                raise DeadEnd(f"no candidates at cell ({i},{j})")
            if stats:
                stats.backtracks += 1
        return cand

    for path in walk(len(order), options):
        if path:
            grid.set(*order[-1], path[-1])
            if stats:
                stats.steps += 1
        yield path


def fill_grid(
    g: Presentation,
    grid: IdentifierGrid,
    policy: GenerationPolicy | None = None,
    stats: GenerationStats | None = None,
) -> None:
    """Fill every empty cell of the grid in schedule order, backtracking over
    cells placed here (pre-filled cells are never revisited)."""
    policy = policy or GenerationPolicy()
    if g.system.size == 0:
        raise NotRealizable("empty vertex set")
    order = [
        c for c in schedule_cells(policy.schedule, grid.m, grid.n, g.system.h, g.system.w)
        if not grid.filled(*c)
    ]
    if next(_fillings(g, grid, order, policy, stats), None) is None:
        for c in order:
            grid.unset(*c)
        raise NotRealizable(f"no {grid.m}x{grid.n} member exists")


def generate_block(
    g: Presentation,
    m: int,
    n: int,
    policy: GenerationPolicy | None = None,
    stats: GenerationStats | None = None,
) -> Block:
    """One m x n member built by filling a fresh identifier grid."""
    grid = IdentifierGrid(g.system, m, n)
    fill_grid(g, grid, policy, stats)
    return grid.to_block()


def enumerate_blocks(
    g: Presentation,
    m: int,
    n: int,
    schedule: str = ROW_MAJOR,
    stats: GenerationStats | None = None,
) -> Iterator[Block]:
    """Every m x n member, by exhaustive DFS in ascending-identifier order."""
    grid = IdentifierGrid(g.system, m, n)
    order = schedule_cells(schedule, m, n, g.system.h, g.system.w)
    for _ in _fillings(g, grid, order, GenerationPolicy(schedule, chooser="ordered"), stats):
        yield grid.to_block()


# -- strip generation (single presentation, one axis) -------------------------


def _first_strip(g: Presentation, head: int, windows: int, rng: random.Random | None, blue: bool) -> Block:
    strip = next(path_strips(g, [head], windows, rng, blue=blue), None)
    if strip is None:
        raise DeadEnd(f"no strip of required length from head {head}")
    return strip


def generate_row_strip(
    gr: Presentation, head: int, m: int, rng: random.Random | None = None
) -> Block:
    """An m x w block generated by a blue path starting at block(head)."""
    cs = gr.system
    if m < cs.h:
        raise ValueError(f"strip height {m} below window height {cs.h}")
    return _first_strip(gr, head, m - cs.h + 1, rng, blue=True)


def generate_col_strip(
    gc: Presentation, head: int, n: int, rng: random.Random | None = None
) -> Block:
    """An h x n block generated by a red path starting at block(head)."""
    cs = gc.system
    if n < cs.w:
        raise ValueError(f"strip width {n} below window width {cs.w}")
    return _first_strip(gc, head, n - cs.w + 1, rng, blue=False)


def enumerate_row_strips(gr: Presentation, m: int, head: int | None = None) -> Iterator[Block]:
    """All m x w blocks generated by blue paths (optionally from one head)."""
    cs = gr.system
    if m < cs.h:
        raise ValueError(f"strip height {m} below window height {cs.h}")
    heads = [head] if head is not None else gr.vertices
    yield from path_strips(gr, heads, m - cs.h + 1, blue=True)


def enumerate_col_strips(gc: Presentation, n: int, head: int | None = None) -> Iterator[Block]:
    """All h x n blocks generated by red paths (optionally from one head)."""
    cs = gc.system
    if n < cs.w:
        raise ValueError(f"strip width {n} below window width {cs.w}")
    heads = [head] if head is not None else gc.vertices
    yield from path_strips(gc, heads, n - cs.w + 1, blue=False)


def is_generated(g: Presentation, b: Block) -> bool:
    """True iff every window is a vertex and adjacent windows are edge-connected.

    Equivalent to: every full-height width-w strip of b is a blue path and every
    full-width height-h strip is a red path.  Windows are looked up by code, one
    row of windows at a time; a symbol outside the alphabet is no vertex.
    """
    cs = g.system
    if b.height < cs.h or b.width < cs.w:
        raise ValueError(f"block {b.height}x{b.width} below window size {cs.h}x{cs.w}")
    try:
        window_rows = cs.window_codes(b)
    except ValueError:
        return False
    above: list[int | None] = []  # the identifiers of the row of windows above
    for codes in window_rows:
        ids = list(map(cs.code_to_id.get, codes))
        red, blue = zip(ids, ids[1:]), zip(above, ids)  # edges to the right and from above
        if None in ids or not (g.red_pairs.issuperset(red) and g.blue_pairs.issuperset(blue)):
            return False
        above = ids
    return True
