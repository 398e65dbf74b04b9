"""Labelled directed graph presentations of a 2D constrained system.

Vertices are the identifiers of allowed h x w blocks.  A blue edge u -> v
appends one row: the last h-1 rows of block(u) must equal the first h-1 rows
of block(v), and the edge label is the h-th row of block(v).  A red edge
u -> v appends one column under the mirrored h x (w-1) overlap, labelled by
the w-th column of block(v).  For h = 1 (resp. w = 1) the overlap is empty and
the blue (resp. red) relation is complete, self-loops included.

A presentation carries both edge sets over the shared vertex set; the row
(blue) and column (red) presentations are the same record with the other
colour left empty, and every consumer reads the colour it needs.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .blocks import Block, ConstraintSystem

@dataclass(frozen=True, eq=False)
class Presentation:
    system: ConstraintSystem
    blue: dict[int, tuple[int, ...]]  # ascending successor lists
    red: dict[int, tuple[int, ...]]

    @property
    def vertices(self) -> range:
        return range(1, self.system.size + 1)

    @property
    def n_blue(self) -> int:
        return sum(len(v) for v in self.blue.values())

    @property
    def n_red(self) -> int:
        return sum(len(v) for v in self.red.values())

    def blue_out(self, u: int) -> tuple[int, ...]:
        return self.blue.get(u, ())

    def red_out(self, u: int) -> tuple[int, ...]:
        return self.red.get(u, ())

    @cached_property
    def overlap_colours(self) -> tuple[bool, bool]:
        """Whether the blue and the red successor lists are the overlap relation,
        as ``row_presentation`` and ``column_presentation`` build them (compared
        by content, so a copy of them counts too); built on first use."""
        t = self.system.overlaps
        return self.blue == _successors_by_overlap(t.top, t.bottom), self.red == _successors_by_overlap(t.left, t.right)

    def _classes(self, out: dict[int, tuple[int, ...]]) -> list[int]:
        first: dict[tuple[int, ...], int] = {}
        return [0] + [first.setdefault(out.get(u, ()), u) for u in self.vertices]

    @cached_property
    def blue_class(self) -> list[int]:
        """blue_class[u]: the first identifier with the blue successors of u (0 for 0)."""
        return self._classes(self.blue)

    @cached_property
    def red_class(self) -> list[int]:
        """red_class[u]: the first identifier with the red successors of u (0 for 0)."""
        return self._classes(self.red)

    def has_blue(self, u: int, v: int) -> bool:
        """Whether v is a blue successor of u, by bisecting u's successor list."""
        return _has(self.blue.get(u, ()), v)

    def has_red(self, u: int, v: int) -> bool:
        """Whether v is a red successor of u, by bisecting u's successor list."""
        return _has(self.red.get(u, ()), v)

    def blue_label(self, u: int, v: int) -> Block:
        """Label of blue edge u -> v: the h-th row of block(v), as a 1 x w block."""
        if not self.has_blue(u, v):
            raise ValueError(f"no blue edge {u} -> {v}")
        return Block((self.system.overlaps.blue[v],))

    def red_label(self, u: int, v: int) -> Block:
        """Label of red edge u -> v: the w-th column of block(v), as an h x 1 block."""
        if not self.has_red(u, v):
            raise ValueError(f"no red edge {u} -> {v}")
        return Block(self.system.red_cells[v])

    @cached_property
    def completions(self) -> Callable[[int, int], tuple[int, ...]]:
        """completions(b, c): every d with blue b -> d and red c -> d, ascending.

        These close every quadruple (a, b, c, d) whose corner (a, b, c) exists:
        b and c fix all of d's overlaps, so a adds no condition.  One index, built
        on first use, keys each window by its top and left overlaps (all of it but
        its corner), each named by the first window with it; b fixes the first as
        its bottom overlap, c the second as its right one.  Overlaps no window has
        and identifiers outside 1..size find no key; a one-colour view has none.
        """
        t, n = self.system.overlaps, self.system.size + 1
        ds = range(1, n) if self.blue and self.red else range(0)
        top_id, left_id = {}, {}  # each overlap's first window
        index: dict[int, tuple[int, ...]] = defaultdict(tuple)  # at most q windows per key, one per corner
        for d in ds:
            index[top_id.setdefault(t.top[d], d) * n + left_id.setdefault(t.left[d], d)] += (d,)
        miss, get = -n * n, index.get  # a missing part leaves the sum negative whatever the other part is
        below = {b: top_id[t.bottom[b]] * n for b in ds if t.bottom[b] in top_id}
        beside = {c: left_id[t.right[c]] for c in ds if t.right[c] in left_id}
        return lambda b, c: get(below.get(b, miss) + beside.get(c, miss), ())

    @cached_property
    def quadruple_table(self) -> "QuadrupleTable":
        return quadruples(self)


def _has(successors: tuple[int, ...], v: int) -> bool:
    i = bisect_left(successors, v)
    return i < len(successors) and successors[i] == v


def _successors_by_overlap(leading: list, trailing: list) -> dict[int, tuple[int, ...]]:
    # bucket targets by their leading overlap; a source matches via its trailing overlap
    by_leading: dict[tuple, list[int]] = defaultdict(list)
    for v in range(1, len(leading)):
        by_leading[leading[v]].append(v)
    succ = {k: tuple(vs) for k, vs in by_leading.items()}
    return {u: vs for u, vs in enumerate(map(succ.get, trailing[1:]), 1) if vs}


def row_presentation(cs: ConstraintSystem) -> Presentation:
    """Blue edges only: u -> v iff the last h-1 rows of u equal the first h-1 rows of v."""
    return Presentation(cs, _successors_by_overlap(cs.overlaps.top, cs.overlaps.bottom), {})


def column_presentation(cs: ConstraintSystem) -> Presentation:
    """Red edges only: u -> v iff the last w-1 columns of u equal the first w-1 columns of v."""
    return Presentation(cs, {}, _successors_by_overlap(cs.overlaps.left, cs.overlaps.right))


def combined(gr: Presentation, gc: Presentation) -> Presentation:
    """The blue edges of gr and the red edges of gc over their shared vertices."""
    if gr.system is not gc.system:
        raise ValueError("presentations built from different systems")
    return Presentation(gr.system, gr.blue, gc.red)


def build(cs: ConstraintSystem) -> Presentation:
    """The presentation with both edge sets."""
    return combined(row_presentation(cs), column_presentation(cs))


@dataclass(frozen=True, eq=False)
class QuadrupleTable:
    """Compatible identifier 4-tuples (a, b, c, d) for four adjacent grid cells.

    a, b, c, d sit at top-left, top-right, bottom-left, bottom-right; the tuple
    is present iff red a->b, blue a->c, red c->d and blue b->d all exist, i.e.
    both the red-then-blue and blue-then-red paths from a to d exist.  Nothing
    is stored: the completions of a corner (a, b, c) are those of the pair
    (b, c), iteration walks the corners on demand, and the length is counted.
    """

    presentation: Presentation = field(repr=False)

    def completions(self, a: int, b: int, c: int) -> tuple[int, ...]:
        """All d with (a, b, c, d) compatible, ascending."""
        g = self.presentation
        return g.completions(b, c) if g.has_red(a, b) and g.has_blue(a, c) else ()

    def __len__(self) -> int:
        """N(h + 1, w + 1): the quadruples biject with the (h+1) x (w+1) members."""
        from .analysis import count_by_profile  # analysis imports this module
        g = self.presentation
        return count_by_profile(g, g.system.h + 1, g.system.w + 1)

    def __contains__(self, quad: tuple[int, int, int, int]) -> bool:
        return len(quad) == 4 and quad[3] in self.completions(*quad[:3])

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        g = self.presentation
        return (
            (a, b, c, d) for a in g.vertices for b in g.red_out(a) for c in g.blue_out(a) for d in g.completions(b, c)
        )


def quadruples(g: Presentation) -> QuadrupleTable:
    """The quadruple table of g; its completions are read from g's index on demand."""
    return QuadrupleTable(g)


@dataclass(frozen=True, eq=False)
class ClassView:
    """The column presentation viewed with a fixed head block.

    Every horizontal strip enumerated from the view starts at its head; the
    full family of views (one per identifier) organizes row-by-row generation.
    """

    presentation: Presentation
    head: int

    def strips(self, n: int) -> Iterator[Block]:
        """All h x n blocks generated by red paths starting at the head."""
        yield from path_strips(self.presentation, [self.head], n, blue=False)


def class_view(gc: Presentation, k: int) -> ClassView:
    if not 1 <= k <= gc.system.size:
        raise ValueError(f"identifier {k} out of range 1..{gc.system.size}")
    return ClassView(gc, k)


def class_connections(g: Presentation) -> frozenset[tuple[int, int]]:
    """Pairs (k, k') with a blue edge k -> k': the class-to-class connection graph."""
    return frozenset((u, v) for u, vs in g.blue.items() for v in vs)


def walk(length: int, options: Callable[[list[int]], Iterable[int]]) -> Iterator[tuple[int, ...]]:
    """Every identifier sequence s of the given length with s[t] in options(s[:t]).

    Depth first, in the order ``options`` returns its candidates; it is called
    once per prefix shorter than ``length``, with the live prefix list, which
    it may read but not keep.  An explicit stack of candidate iterators takes
    the place of recursion, so no length reaches the recursion limit.
    """
    if length == 0:
        yield ()
        return
    path: list[int] = []
    stack = [iter(options(path))]
    while stack:
        k = next(stack[-1], None)
        if k is None:
            stack.pop()
            if path:
                path.pop()
        elif len(path) + 1 == length:
            yield (*path, k)
        else:
            path.append(k)
            stack.append(iter(options(path)))


def path_strips(
    g: Presentation, heads: Sequence[int], size: int, rng: random.Random | None = None, *, blue: bool
) -> Iterator[Block]:
    """Every strip spelled by a path from a head: its head window, then the
    label of each later window (see ``Overlaps``).  A ``blue`` path spells an
    m x w strip (``size`` is m), a red one an h x n strip (``size`` is n).
    With ``rng`` the successors of each vertex are shuffled before they are tried.
    Each path's parent (all of it but its last window) is spelled once, and
    each path adds its last label to the parent's rows.
    """
    cs, t = g.system, g.system.overlaps
    side, window = ("height", cs.h) if blue else ("width", cs.w)
    out, spell, labels = (g.blue_out, t.blue_strip, t.blue) if blue else (g.red_out, t.red_strip, cs.red_cells)
    if size < window:
        raise ValueError(f"strip {side} {size} below window {side} {window}")
    for u in heads:
        cs.block(u)  # range check

    def options(path: Sequence[int]) -> Sequence[int]:
        if not path:
            return heads
        if rng is None:
            return out(path[-1])
        succ = list(out(path[-1]))
        rng.shuffle(succ)
        return succ

    if size == window:
        yield from (Block.stitched(t.rows[u]) for u in heads)
        return
    for parent in walk(size - window, options):
        leaves = options(parent)  # the call, and the shuffle, that walk makes when it pushes the parent
        if not leaves:
            continue
        rows = spell(parent)
        if blue:
            yield from (Block.stitched(rows + (labels[v],)) for v in leaves)
        else:
            yield from (Block.stitched(tuple(map(add, rows, labels[v]))) for v in leaves)
