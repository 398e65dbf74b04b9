"""Finite two-dimensional blocks over a finite alphabet.

A block is an m x n array of symbol indices.  Coordinates are 1-based with
``(i, j)`` naming row ``i``, column ``j``.  Degenerate blocks (zero height or
zero width) all collapse to the single empty block ``EMPTY``.

A :class:`ConstraintSystem` fixes a window size ``(h, w)`` and a forbidden set
of blocks no larger than ``h x w``; a block is a member of the system when
none of its ``h x w`` windows contains a forbidden block.

A window's *code* is its cells, read row-major, as base-q digits (q the
alphabet size).  It equals the window's rank in ``all_blocks(q, h, w)``, so the
allowed codes in ascending order give the identifiers 1..size.  Window scans
work on codes by arithmetic; a window space above ``WINDOW_BUDGET`` is refused.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from operator import mul
from typing import Iterable, Iterator, Sequence

WINDOW_BUDGET = 1 << 20  # codes in the window space of a system or an embedding


class BudgetExceeded(RuntimeError):
    """Work refused up front for exceeding its budget."""


@dataclass(frozen=True)
class Block:
    """Immutable 2D array of symbol indices, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")
        if not rows or widths == {0}:
            rows = ()  # canonical empty block
        object.__setattr__(self, "rows", rows)

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def cells(self) -> tuple[int, ...]:
        """Row-major flattening; also the canonical-order sort key."""
        return tuple(chain.from_iterable(self.rows))

    def is_empty(self) -> bool:
        return not self.rows

    def __getitem__(self, coord: tuple[int, int]) -> int:
        i, j = coord
        if not (1 <= i <= self.height and 1 <= j <= self.width):
            raise IndexError(f"cell ({i},{j}) outside {self.height}x{self.width} block")
        return self.rows[i - 1][j - 1]

    # -- prefix / suffix operators ------------------------------------------

    def prefix_col(self) -> "Block":
        """Drop the last column."""
        if self.width < 1:
            raise ValueError("prefix_col of a block with width 0")
        return Block(tuple(r[:-1] for r in self.rows))

    def suffix_col(self) -> "Block":
        """Drop the first column."""
        if self.width < 1:
            raise ValueError("suffix_col of a block with width 0")
        return Block(tuple(r[1:] for r in self.rows))

    def prefix_row(self) -> "Block":
        """Drop the last row."""
        if self.height < 1:
            raise ValueError("prefix_row of a block with height 0")
        return Block(self.rows[:-1])

    def suffix_row(self) -> "Block":
        """Drop the first row."""
        if self.height < 1:
            raise ValueError("suffix_row of a block with height 0")
        return Block(self.rows[1:])

    # -- concatenation -------------------------------------------------------

    def concat_col(self, other: "Block") -> "Block":
        """Place ``other`` to the right of this block."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        if self.height != other.height:
            raise ValueError(f"height mismatch: {self.height} vs {other.height}")
        return Block(tuple(a + b for a, b in zip(self.rows, other.rows)))

    def concat_row(self, other: "Block") -> "Block":
        """Place ``other`` below this block."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return Block(self.rows + other.rows)

    # -- extraction ----------------------------------------------------------

    def subblock(self, top: int, left: int, height: int, width: int) -> "Block":
        """The ``height x width`` subblock with top-left corner at 1-based (top, left)."""
        if top < 1 or left < 1 or height < 0 or width < 0:
            raise ValueError("subblock coordinates must be positive")
        if top + height - 1 > self.height or left + width - 1 > self.width:
            raise ValueError(
                f"subblock {height}x{width} at ({top},{left}) exceeds "
                f"{self.height}x{self.width} block"
            )
        return Block(tuple(r[left - 1 : left - 1 + width] for r in self.rows[top - 1 : top - 1 + height]))

    def row_block(self, i: int) -> "Block":
        """Row ``i`` as a 1 x n block."""
        return self.subblock(i, 1, 1, self.width)

    def col_block(self, j: int) -> "Block":
        """Column ``j`` as an m x 1 block."""
        return self.subblock(1, j, self.height, 1)

    def transpose(self) -> "Block":
        return Block(tuple(zip(*self.rows))) if self.rows else EMPTY


EMPTY = Block(())


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct single-character symbols; index <-> token bijection."""

    symbols: str

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet {self.symbols!r}")
        if any(c.isspace() for c in self.symbols):
            raise ValueError("alphabet symbols must be non-whitespace")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, token: str) -> int:
        i = self.symbols.find(token)
        if len(token) != 1 or i < 0:
            raise ValueError(f"symbol {token!r} not in alphabet {self.symbols!r}")
        return i

    def parse_block(self, lines: Iterable[str]) -> Block:
        return Block(tuple(tuple(self.index(c) for c in line) for line in lines))

    def format_block(self, b: Block) -> list[str]:
        return ["".join(self.symbols[c] for c in r) for r in b.rows]


def all_blocks(alphabet_size: int, m: int, n: int) -> Iterator[Block]:
    """Every m x n block, in canonical (row-major lexicographic) order."""
    for cells in product(range(alphabet_size), repeat=m * n):
        yield Block(tuple(cells[r * n : (r + 1) * n] for r in range(m)))


def _window_space(q: int, h: int, w: int) -> int:
    """The number of h x w windows, q^(h*w); BudgetExceeded above WINDOW_BUDGET."""
    if q > 1 and h * w >= WINDOW_BUDGET.bit_length() or q ** (h * w) > WINDOW_BUDGET:
        raise BudgetExceeded(f"window space of {q}^{h * w} {h}x{w} windows exceeds budget {WINDOW_BUDGET}")
    return q ** (h * w)


def _in_alphabet(rows: tuple[tuple[int, ...], ...], q: int) -> bool:
    return not rows or (min(map(min, rows)) >= 0 and max(map(max, rows)) < q)


def _window_rows(rows: Sequence[Sequence[int]], q: int, h: int, w: int) -> Iterator[Sequence[int]]:
    """For each top row, the codes of the h x w windows along it, left to right."""
    qw = q**w
    top = qw ** (h - 1)  # weight of a window's top row
    for i, r in enumerate(rows):
        line = r[: len(r) - w + 1]
        for k in range(1, w):
            line = [a * q + b for a, b in zip(line, r[k:])]
        if i == 0 or h == 1:
            codes = line
        elif i < h:
            codes = [a * qw + b for a, b in zip(codes, line)]
        else:
            codes = [a % top * qw + b for a, b in zip(codes, line)]
        if i >= h - 1:
            yield codes


def decode_windows(codes: Iterable[int], q: int, h: int, w: int) -> list[Block]:
    """The h x w blocks with the given codes, in the order given."""
    qw = q**w
    lines = list(product(range(q), repeat=w))  # block rows, indexed by their codes
    weights = [qw**k for k in reversed(range(h))]
    return [Block(tuple(lines[c // p % qw] for p in weights)) for c in codes]


def _fit(blocks: Iterable[Block], h: int, w: int) -> list[Block]:
    """The blocks as a list; ValueError for one larger than the h x w window."""
    blocks = list(blocks)
    for b in blocks:
        if b.height > h or b.width > w:
            raise ValueError(f"block {b.height}x{b.width} exceeds window {h}x{w}")
    return blocks


def _grow_codes(blocks: Iterable[Block], q: int, h: int, w: int) -> set[int]:
    """Codes of the h x w windows that contain at least one of the blocks: each
    placement fixes the digits of a block's cells, the free cells take every digit."""
    weights = [q ** (h * w - 1 - k) for k in range(h * w)]  # of the cells, row-major
    shapes = defaultdict(set)  # the cells of the blocks of each shape, placed together
    for b in blocks:
        shapes[b.height, b.width].add(b.cells)
    codes = set()
    for (m, n), cells in shapes.items():
        for top, left in product(range(h - m + 1), range(w - n + 1)):
            inside = [(top + i) * w + left + j for i in range(m) for j in range(n)]
            grown = [sum(map(mul, c, [weights[k] for k in inside])) for c in cells]
            for k in set(range(h * w)).difference(inside):
                grown = [c + x * weights[k] for c in grown for x in range(q)]
            codes.update(grown)
    return codes


class ConstraintSystem:
    """Window size (h, w), forbidden set F, and the derived allowed set.

    F is given as blocks of any size up to h x w; a smaller block forbids every
    window that contains it.  ``forbidden_codes`` holds the codes of the
    forbidden windows, and ``forbidden`` decodes them into blocks on first use.
    Allowed blocks are numbered 1..size in canonical order; this numbering is
    the identifier bijection used as the vertex set of every presentation.
    ``code_to_id`` maps the code of each allowed window to its identifier.
    """

    def __init__(self, alphabet: Alphabet, h: int, w: int, forbidden: Iterable[Block]):
        if h < 1 or w < 1:
            raise ValueError(f"window size must be positive, got {h}x{w}")
        q = alphabet.size
        windows = _window_space(q, h, w)
        self.alphabet, self.h, self.w = alphabet, h, w
        blocks = _fit(forbidden, h, w)
        if not {x for b in blocks for r in b.rows for x in r} <= set(range(q)):
            raise ValueError(f"forbidden block uses a symbol outside 0..{q - 1}")
        self.forbidden_codes = frozenset(_grow_codes(blocks, q, h, w))
        allowed = [c for c in range(windows) if c not in self.forbidden_codes]
        self.allowed = tuple(decode_windows(allowed, q, h, w))
        self.code_to_id = dict(zip(allowed, range(1, len(allowed) + 1)))

    @cached_property
    def forbidden(self) -> frozenset[Block]:
        """The forbidden h x w windows as blocks."""
        return frozenset(decode_windows(self.forbidden_codes, self.alphabet.size, self.h, self.w))

    def window_codes(self, b: Block) -> Iterator[Sequence[int]]:
        """Codes of b's h x w windows, one row at a time; ValueError for a symbol
        outside the alphabet, whose digit would alias another window's code."""
        q = self.alphabet.size
        if not _in_alphabet(b.rows, q):
            raise ValueError(f"block uses a symbol outside 0..{q - 1}")
        if b.height < self.h or b.width < self.w:
            return iter(())
        return _window_rows(b.rows, q, self.h, self.w)

    @property
    def size(self) -> int:
        """Number of allowed h x w blocks."""
        return len(self.allowed)

    def block(self, k: int) -> Block:
        if not 1 <= k <= self.size:
            raise ValueError(f"identifier {k} out of range 1..{self.size}")
        return self.allowed[k - 1]

    def identifier(self, b: Block) -> int | None:
        """Identifier of an allowed block, or None if b is forbidden, wrong-sized
        or uses a symbol outside the alphabet."""
        q = self.alphabet.size
        if (b.height, b.width) != (self.h, self.w) or not _in_alphabet(b.rows, q):
            return None
        return self.code_to_id.get(next(_window_rows(b.rows, q, self.h, self.w))[0])

    def first_forbidden_window(self, b: Block) -> tuple[int, int] | None:
        """Top-left corner of the first forbidden window in row-major scan, if any."""
        bad = self.forbidden_codes
        for i, codes in enumerate(self.window_codes(b), 1):
            if not bad.isdisjoint(codes):
                return i, next(j for j, c in enumerate(codes, 1) if c in bad)
        return None

    def is_member(self, b: Block) -> bool:
        """True iff no h x w window of b is forbidden.

        Blocks smaller than the window size contain no window and are members,
        though they lie below the modified-system size.
        """
        return self.first_forbidden_window(b) is None

    def below_modified_size(self, b: Block) -> bool:
        return b.height < self.h or b.width < self.w


def embed_forbidden(
    alphabet: Alphabet, h: int, w: int, patterns: Iterable[Block]
) -> frozenset[Block]:
    """All h x w blocks containing at least one of the given patterns.

    Lets mixed-size patterns (e.g. a 1x2 and a 2x1 adjacency constraint)
    be expressed as a uniform-size forbidden set.  A pattern with a symbol
    outside the alphabet occurs in no window and is skipped.
    """
    patterns = _fit(patterns, h, w)
    if not patterns:
        return frozenset()
    q = alphabet.size
    _window_space(q, h, w)
    codes = _grow_codes([p for p in patterns if _in_alphabet(p.rows, q)], q, h, w)
    return frozenset(decode_windows(codes, q, h, w))
