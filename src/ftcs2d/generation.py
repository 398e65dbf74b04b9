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

The fill is one flat loop over the offsets in schedule order
(``presentation.fillings``).  A forced cell, with one candidate, is placed
and the loop moves on without touching its stack; a cell with more is a
choice point, which takes its first candidate and is pushed with the rest; a
cell with none (greedy filling dead-ends for general forbidden sets) resumes
at the last choice point with a candidate untried, and with none left no
member of the target size exists.

A seeded policy tries each cell's candidates in ``random.Random(seed).shuffle``
order.  The loop makes shuffle's ``getrandbits`` draws itself, which costs
less than calling it per cell; the seeded stream of blocks is part of the
contract, so the draws must be shuffle's, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .blocks import Block, ConstraintSystem
from .presentation import DeadEnd, Presentation, fillings, path_strips


class NotRealizable(RuntimeError):
    """Exhaustive backtracking proved no block of the requested size exists."""


ROW_MAJOR = "row-major"
COL_MAJOR = "col-major"
INTERLEAVED = "interleaved"
SCHEDULES = (ROW_MAJOR, COL_MAJOR, INTERLEAVED)
CHOOSERS = ("random", "ordered")


@dataclass
class GenerationPolicy:
    schedule: str = ROW_MAJOR
    chooser: str = "random"  # "random" (seeded shuffle) or "ordered" (ascending ids)
    backtracking: bool = True
    seed: int = 0


@dataclass
class GenerationStats:
    """Counters of a fill: ``steps`` counts identifiers placed, ``backtracks``
    counts cells reached with no candidate.  A pre-filled cell is no step,
    since the fill places nothing there; one that its neighbours rule out
    counts as a backtrack."""

    steps: int = 0
    backtracks: int = 0


class IdentifierGrid:
    """Partial map from right-bottom window coordinates to vertex identifiers.

    The identifiers sit in ``ids``, one flat row-major list over the grid with
    0 for an empty cell: cell (i, j) is at offset (i - h) * grid_cols + j - w,
    so its upper neighbour is ``grid_cols`` before it and its left one 1 before.
    """

    def __init__(self, system: ConstraintSystem, m: int, n: int):
        if m < system.h or n < system.w:
            raise ValueError(f"target {m}x{n} below window size {system.h}x{system.w}")
        self.system = system
        self.m = m
        self.n = n
        self.ids = [0] * (self.grid_rows * self.grid_cols)

    @property
    def grid_rows(self) -> int:
        return self.m - self.system.h + 1

    @property
    def grid_cols(self) -> int:
        return self.n - self.system.w + 1

    def _offset(self, i: int, j: int) -> int | None:
        """The flat offset of cell (i, j), or None outside the grid."""
        h, w = self.system.h, self.system.w
        if h <= i <= self.m and w <= j <= self.n:
            return (i - h) * self.grid_cols + j - w
        return None

    def _check(self, i: int, j: int) -> int:
        p = self._offset(i, j)
        if p is None:
            raise ValueError(f"cell ({i},{j}) outside identifier grid of {self.m}x{self.n} target")
        return p

    def get(self, i: int, j: int) -> int | None:
        return self.ids[self._check(i, j)] or None

    def set(self, i: int, j: int, k: int) -> None:
        p = self._check(i, j)
        self.system.block(k)  # range check
        self.ids[p] = k

    def filled(self, i: int, j: int) -> bool:
        p = self._offset(i, j)
        return p is not None and self.ids[p] != 0

    def complete(self) -> bool:
        return 0 not in self.ids

    def resize(self, m: int, n: int) -> None:
        """Grow the target size mid-process; filled cells stay valid because
        every constraint only references smaller coordinates."""
        if m < self.m or n < self.n:
            raise ValueError("identifier grids only grow")
        was, cols = self.grid_cols, n - self.system.w + 1
        ids = [0] * ((m - self.system.h + 1) * cols)
        for r in range(self.grid_rows):
            ids[r * cols : r * cols + was] = self.ids[r * was : (r + 1) * was]
        self.m, self.n, self.ids = m, n, ids

    def to_block(self) -> Block:
        """Stitch the block from edge labels, checking overlap agreement.

        Adjacent windows must agree on their overlaps (right against left, bottom
        against top), which is agreement on every cell, as the windows that cover
        a cell form an adjacency-connected rectangle.  The first grid row spells
        the top h rows as a red path; each later one adds its first window's blue
        label, then the bottom-right symbols of the others."""
        if not self.complete():
            raise ValueError("grid is not completely filled")
        t, ids, cols = self.system.overlaps, self.ids, self.grid_cols
        right, left = list(map(t.right.__getitem__, ids)), list(map(t.left.__getitem__, ids))
        del right[cols - 1 :: cols], left[::cols]  # the pairs that straddle a grid row's end
        if right != left or list(map(t.bottom.__getitem__, ids[:-cols])) != list(map(t.top.__getitem__, ids[cols:])):
            seen: dict[tuple[int, int], int] = {}  # name the first cell two windows disagree on
            for p, k in enumerate(ids):
                for r, win_row in enumerate(self.system.block(k).rows, p // cols + 1):
                    for c, val in enumerate(win_row, p % cols + 1):
                        if seen.setdefault((r, c), val) != val:
                            raise AssertionError(f"overlap disagreement at {(r, c)}: {seen[r, c]} vs {val}")
        corner = t.corner.__getitem__
        later = [t.blue[ids[p]] + tuple(map(corner, ids[p + 1 : p + cols])) for p in range(cols, len(ids), cols)]
        return Block.stitched(t.red_strip(ids[:cols]) + tuple(later))


def case_of(i: int, j: int, h: int, w: int) -> int:
    """1 when the cell lies on the first grid row or column, else 2."""
    return 1 if i == h or j == w else 2


def _schedule_offsets(schedule: str, rows: int, cols: int) -> list[int]:
    """The flat offsets of a rows x cols identifier grid in fill order."""
    if schedule == ROW_MAJOR:
        return list(range(rows * cols))
    if schedule == COL_MAJOR:
        return [r * cols + c for c in range(cols) for r in range(rows)]
    if schedule == INTERLEAVED:
        # column pairs, row-major inside each pair
        return [
            r * cols + c for c0 in range(0, cols, 2) for r in range(rows) for c in range(c0, min(c0 + 2, cols))
        ]
    raise ValueError(f"unknown schedule {schedule!r}; expected one of {SCHEDULES}")


def schedule_cells(schedule: str, m: int, n: int, h: int, w: int) -> list[tuple[int, int]]:
    """Fill order for the identifier grid; every order keeps each cell after
    its upper/left predecessors."""
    cols = n - w + 1
    return [(h + p // cols, w + p % cols) for p in _schedule_offsets(schedule, m - h + 1, cols)]


def candidates(g: Presentation, grid: IdentifierGrid, i: int, j: int) -> tuple[int, ...]:
    """Identifiers that may occupy cell (i, j) given its filled predecessors,
    by the case split of ``fillings`` (any vertex at the first cell)."""
    p, cols, ids = grid._check(i, j), grid.grid_cols, grid.ids
    if (p >= cols and not ids[p - cols]) or (p % cols and not ids[p - 1]):
        raise ValueError(f"a predecessor of ({i},{j}) is unfilled")
    was = ids[p]
    cand = tuple(next(fillings(g, ids, [p], cols), ()))
    ids[p] = was  # fillings placed the first candidate
    return cand


def fill_grid(
    g: Presentation,
    grid: IdentifierGrid,
    policy: GenerationPolicy | None = None,
    stats: GenerationStats | None = None,
) -> None:
    """Fill every empty cell of the grid in schedule order, backtracking over
    cells placed here.  A pre-filled cell is kept where the case split of its
    neighbours allows it, and is a dead end where it does not."""
    policy = policy or GenerationPolicy()
    if policy.chooser not in CHOOSERS:
        raise ValueError(f"unknown chooser {policy.chooser!r}; expected one of {CHOOSERS}")
    if g.system.size == 0:
        raise NotRealizable("empty vertex set")
    ids, order = grid.ids, _schedule_offsets(policy.schedule, grid.grid_rows, grid.grid_cols)
    pinned = [ids[p] for p in order] if any(ids) else ()
    draw = random.Random(policy.seed).getrandbits if policy.chooser == "random" else None
    if next(fillings(g, ids, order, grid.grid_cols, draw, stats, policy.backtracking, pinned), None) is None:
        for p, k in zip(order, pinned or [0] * len(order)):
            ids[p] = k
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
    """Every m x n member, by exhaustive DFS in ascending-identifier order.

    The DFS fills all cells but the last, the bottom-right one on every
    schedule; one block is stitched per such parent filling, and each further
    candidate of the last cell that shares the first's top and left overlaps
    only swaps the corner symbol; any other is stitched in full."""
    grid = IdentifierGrid(g.system, m, n)
    ids, t = grid.ids, g.system.overlaps
    order = _schedule_offsets(schedule, grid.grid_rows, grid.grid_cols)
    for leaves in fillings(g, ids, order, grid.grid_cols, stats=stats):
        block = grid.to_block()  # checks the whole grid
        yield block
        head, tail = block.rows[:-1], block.rows[-1][:-1]
        top, left = t.top[leaves[0]], t.left[leaves[0]]
        for d in leaves[1:]:
            if stats is not None:
                stats.steps += 1
            if t.top[d] == top and t.left[d] == left:  # agrees where the first leaf does
                yield Block.stitched(head + (tail + (t.corner[d],),))
            else:  # the full stitch names the cell the windows disagree on
                ids[order[-1]] = d
                yield grid.to_block()


# -- strip generation (single presentation, one axis) -------------------------


def _first_strip(g: Presentation, head: int, size: int, rng: random.Random | None, blue: bool) -> Block:
    strip = next(path_strips(g, [head], size, rng, blue=blue), None)
    if strip is None:
        raise DeadEnd(f"no strip of required length from head {head}")
    return strip


def generate_row_strip(gr: Presentation, head: int, m: int, rng: random.Random | None = None) -> Block:
    """An m x w block generated by a blue path starting at block(head)."""
    return _first_strip(gr, head, m, rng, blue=True)


def generate_col_strip(gc: Presentation, head: int, n: int, rng: random.Random | None = None) -> Block:
    """An h x n block generated by a red path starting at block(head)."""
    return _first_strip(gc, head, n, rng, blue=False)


def enumerate_row_strips(gr: Presentation, m: int, head: int | None = None) -> Iterator[Block]:
    """All m x w blocks generated by blue paths (optionally from one head)."""
    yield from path_strips(gr, [head] if head is not None else gr.vertices, m, blue=True)


def enumerate_col_strips(gc: Presentation, n: int, head: int | None = None) -> Iterator[Block]:
    """All h x n blocks generated by red paths (optionally from one head)."""
    yield from path_strips(gc, [head] if head is not None else gc.vertices, n, blue=False)


def is_generated(g: Presentation, b: Block) -> bool:
    """True iff every window is a vertex and adjacent windows are edge-connected.

    Equivalent to: every full-height width-w strip of b is a blue path and every
    full-width height-h strip is a red path.  The edges are the overlap
    relation, so this is one membership scan (``ConstraintSystem.is_member``):
    a window and the one below it share rows i+1..i+h-1 of b, which are the
    bottom overlap of the first and the top overlap of the second, so a blue
    edge joins them whenever both are vertices; likewise the shared columns
    give a red edge to the right.  A view without red generates only blocks
    one window wide, one without blue only blocks one window high.  A symbol
    outside the alphabet is no vertex.
    """
    cs = g.system
    if b.height < cs.h or b.width < cs.w:
        raise ValueError(f"block {b.height}x{b.width} below window size {cs.h}x{cs.w}")
    if (b.width > cs.w and not g.with_red) or (b.height > cs.h and not g.with_blue):
        return False
    try:
        return cs.is_member(b)
    except ValueError:
        return False
