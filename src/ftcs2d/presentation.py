"""Labelled directed graph presentations of a 2D constrained system.

Vertices are the identifiers of allowed h x w blocks.  A blue edge u -> v
appends one row: the last h-1 rows of block(u) must equal the first h-1 rows
of block(v), and the edge label is the h-th row of block(v).  A red edge
u -> v appends one column under the mirrored h x (w-1) overlap, labelled by
the w-th column of block(v).  For h = 1 (resp. w = 1) the overlap is empty and
the blue (resp. red) relation is complete, self-loops included.

A presentation is the system plus the colours it has, and its edges are the
overlap relation, listed on first use; the row (blue) and column (red)
presentations are the same record with the other colour left out.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import defaultdict
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property
from operator import add
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator, Sequence

from .blocks import Block, ConstraintSystem

if TYPE_CHECKING:
    from .generation import GenerationStats  # generation imports this module

@dataclass(frozen=True, eq=False)
class Presentation:
    system: ConstraintSystem
    _: KW_ONLY
    with_blue: bool = True
    with_red: bool = True

    @cached_property
    def blue(self) -> dict[int, tuple[int, ...]]:
        """Ascending successor lists of the overlap relation, built on first use; none without blue."""
        return _successors_by_overlap(self.system.overlaps.top, self.system.overlaps.bottom) if self.with_blue else {}

    @cached_property
    def red(self) -> dict[int, tuple[int, ...]]:
        """Ascending successor lists of the overlap relation, built on first use; none without red."""
        return _successors_by_overlap(self.system.overlaps.left, self.system.overlaps.right) if self.with_red else {}

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

    def _classes(self, keys: Iterable[Hashable]) -> list[int]:
        """Each vertex's class, given one key per vertex: the first vertex with its key (0 for 0)."""
        first: dict[Hashable, int] = {}
        return [0] + [first.setdefault(k, u) for u, k in zip(self.vertices, keys)]

    @cached_property
    def blue_class(self) -> list[int]:
        """blue_class[u]: the first identifier with the blue successors of u (0 for 0)."""
        return self._classes(map(self.blue_out, self.vertices))

    @cached_property
    def red_class(self) -> list[int]:
        """red_class[u]: the first identifier with the red successors of u (0 for 0)."""
        return self._classes(map(self.red_out, self.vertices))

    @cached_property
    def pair_class(self) -> list[int]:
        """pair_class[u]: the first identifier with the blue and the red successors of u (0 for 0)."""
        return self._classes(zip(self.blue_class[1:], self.red_class[1:]))

    @cached_property
    def top_class(self) -> list[int]:
        """top_class[u]: the first identifier with the top overlap of u (0 for 0)."""
        return self._classes(self.system.overlaps.top[1:])

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
        ds = range(1, n) if self.with_blue and self.with_red else range(0)
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
    return Presentation(cs, with_red=False)


def column_presentation(cs: ConstraintSystem) -> Presentation:
    """Red edges only: u -> v iff the last w-1 columns of u equal the first w-1 columns of v."""
    return Presentation(cs, with_blue=False)


def combined(gr: Presentation, gc: Presentation) -> Presentation:
    """The blue edges of gr and the red edges of gc over their shared vertices."""
    if gr.system is not gc.system:
        raise ValueError("presentations built from different systems")
    return Presentation(gr.system, with_blue=gr.with_blue, with_red=gc.with_red)


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


class DeadEnd(RuntimeError):
    """A cell had no candidates and backtracking was disabled or exhausted locally."""


def fillings(
    g: Presentation,
    ids: list[int],
    order: Sequence[int],
    cols: int,
    getrandbits: Callable[[int], int] | None = None,
    stats: GenerationStats | None = None,
    backtracking: bool = True,
    pinned: Sequence[int] = (),
) -> Iterator[Sequence[int]]:
    """Every filling of the offsets ``order`` of the flat grid ``ids``
    (``cols`` wide, as in ``IdentifierGrid``), depth first: for each filling
    of all of them but the last, the candidates of the last, while the grid
    holds that filling and the first candidate at the last offset.

    Candidates follow the case split of ``ftcs2d.generation`` (every vertex
    at offset 0), which also describes choice points, dead ends (``DeadEnd``
    without ``backtracking``) and the draws: with ``getrandbits`` a cell tries
    its candidates in ``random.Random.shuffle`` order, from the same draws.
    ``stats`` counts identifiers placed and cells with no candidate.
    ``pinned``, if given, holds an identifier or 0 per offset of ``order``: a
    pinned cell keeps its identifier where its candidates hold it, and is a
    dead end where they do not; keeping it is no step.
    """
    red, blue, completions, vertices = g.red.get, g.blue.get, g.completions, g.vertices
    last = len(order) - 1
    stack: list[tuple[int, Sequence[int], int]] = []  # (t, candidates, next to try) while one is untried
    t = base = 0  # the cells at base..t-1 were placed since stats was last updated
    while True:
        p = order[t]
        if p < cols:
            cand = red(ids[p - 1], ()) if p else vertices
        elif p % cols:
            cand = completions(ids[p - cols], ids[p - 1])
        else:
            cand = blue(ids[p - cols], ())
        if pinned and pinned[t]:  # kept, not placed: the step counted for it below is taken back
            cand = (pinned[t],) if pinned[t] in cand else ()
            if cand and stats is not None:
                stats.steps -= 1
        n = len(cand)
        if n > 1:
            if n == 2 and getrandbits:  # the commonest choice: shuffle's one draw, below 2 from 2 bits
                r = getrandbits(2)
                while r > 1:
                    r = getrandbits(2)
                if not r:
                    cand = cand[1], cand[0]
            elif getrandbits:  # item i swaps with a draw below i + 1, for i = n-1 down to 1
                cand = [*cand]
                for i in range(n - 1, 0, -1):
                    k = (i + 1).bit_length()
                    j = getrandbits(k)
                    while j > i:
                        j = getrandbits(k)
                    cand[i], cand[j] = cand[j], cand[i]
            if t < last:
                stack.append((t, cand, 1))
                ids[p] = cand[0]
                t += 1
                continue
        elif n and t < last:  # a forced cell skips the stack
            ids[p] = cand[0]
            t += 1
            continue
        if stats is not None:
            stats.steps += t - base + (n > 0)
        if n:
            ids[p] = cand[0]
            yield cand
        elif not backtracking:
            raise DeadEnd(f"no candidates at cell ({p // cols + g.system.h},{p % cols + g.system.w})")
        elif stats is not None:
            stats.backtracks += 1
        if not stack:
            return
        base, cand, i = stack.pop()
        if i + 1 < len(cand):
            stack.append((base, cand, i + 1))
        ids[order[base]] = cand[i]
        t = base + 1


def path_strips(
    g: Presentation, heads: Sequence[int], size: int, rng: random.Random | None = None, *, blue: bool
) -> Iterator[Block]:
    """Every strip spelled by a path from a head: its head window, then the
    label of each later window (see ``Overlaps``).  A ``blue`` path spells an
    m x w strip (``size`` is m), a red one an h x n strip (``size`` is n).
    Paths are filled by ``fillings`` as one-column or one-row grids, head by
    head; with ``rng`` each vertex's successors are tried in ``rng.shuffle``
    order, drawn through ``rng.getrandbits`` (so for ``random.Random`` and
    any generator whose ``_randbelow`` reads it).  Each path's parent (all of
    it but its last window) is spelled once, and each path adds its last
    label to the parent's rows.
    """
    cs, t = g.system, g.system.overlaps
    side, window = ("height", cs.h) if blue else ("width", cs.w)
    spell, labels = (t.blue_strip, t.blue) if blue else (t.red_strip, cs.red_cells)
    if size < window:
        raise ValueError(f"strip {side} {size} below window {side} {window}")
    for u in heads:
        cs.block(u)  # range check
    if size == window:
        yield from (Block.stitched(t.rows[u]) for u in heads)
        return
    ids = [0] * (size - window + 1)
    draw = rng.getrandbits if rng is not None else None
    for u in heads:
        ids[0] = u
        for leaves in fillings(g, ids, range(1, len(ids)), 1 if blue else len(ids), draw):
            rows = spell(ids[:-1])
            if blue:
                yield from (Block.stitched(rows + (labels[v],)) for v in leaves)
            else:
                yield from (Block.stitched(tuple(map(add, rows, labels[v]))) for v in leaves)
