"""Finite two-dimensional blocks over a finite alphabet.

A block is an m x n array of symbol indices.  Coordinates are 1-based with
``(i, j)`` naming row ``i``, column ``j``.  Degenerate blocks (zero height or
zero width) all collapse to the single empty block ``EMPTY``.

A :class:`ConstraintSystem` fixes a window size ``(h, w)`` and a forbidden set
of blocks no larger than ``h x w``; a block is a member of the system when
none of its ``h x w`` windows contains a forbidden block.

A window's *code* is its cells, read row-major, as base-q digits (q the
alphabet size).  It equals the window's rank in ``all_blocks(q, h, w)``, so the
allowed codes, grown cell by cell in ascending order, give the identifiers
1..size.  Window scans work on codes by arithmetic, a row of windows at a time.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

WINDOW_BUDGET = 1 << 20  # partial windows held at a cell; window codes listed by a complement
_TYPECODES = {array(t).itemsize: t for t in "QLIHB"}  # the array typecode of each field size of 1, 2, 4 and 8 bytes
_STEP = 1 if sys.byteorder == "little" else -1  # reads a native array of fields low field first


class BudgetExceeded(RuntimeError):
    """Work refused up front for exceeding its budget: ``layer`` names the work,
    ``count`` is how much of it there was when it stopped, and ``limit`` is the
    budget it was charged against (the numbers the message gives)."""

    def __init__(self, message: str, *, layer: str, count: int, limit: int):
        super().__init__(message)
        self.layer, self.count, self.limit = layer, count, limit


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def stitched(cls, rows: tuple[tuple[int, ...], ...]) -> "Block":
        """A block of rows stitched from windows: a nonempty tuple of equal-width tuples, not checked again."""
        block = object.__new__(cls)
        object.__setattr__(block, "rows", rows)
        return block

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
        object.__setattr__(self, "_indices", {c: i for i, c in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, token: str) -> int:
        i = self._indices.get(token)
        if i is None:
            raise ValueError(f"symbol {token!r} not in alphabet {self.symbols!r}")
        return i

    def parse_row(self, line: str) -> tuple[int, ...]:
        """The indices of a line's symbols; ValueError on a symbol outside the alphabet."""
        try:
            return tuple(map(self._indices.__getitem__, line))
        except KeyError as e:
            raise ValueError(f"symbol {e.args[0]!r} not in alphabet {self.symbols!r}") from None

    def parse_block(self, lines: Iterable[str]) -> Block:
        return Block(tuple(map(self.parse_row, lines)))

    def format_block(self, b: Block) -> list[str]:
        return ["".join(self.symbols[c] for c in r) for r in b.rows]


def all_blocks(alphabet_size: int, m: int, n: int) -> Iterator[Block]:
    """Every m x n block, in canonical (row-major lexicographic) order."""
    for cells in product(range(alphabet_size), repeat=m * n):
        yield Block(tuple(cells[r * n : (r + 1) * n] for r in range(m)))


def _window_space(q: int, h: int, w: int) -> int:
    """The number of h x w windows, q^(h*w); BudgetExceeded above WINDOW_BUDGET."""
    if q > 1 and h * w >= WINDOW_BUDGET.bit_length() or q ** (h * w) > WINDOW_BUDGET:
        raise BudgetExceeded(
            f"window space of {q}^{h * w} {h}x{w} windows exceeds budget {WINDOW_BUDGET}",
            layer="window space", count=q ** (h * w), limit=WINDOW_BUDGET,
        )
    return q ** (h * w)


def _in_alphabet(rows: tuple[tuple[int, ...], ...], q: int) -> bool:
    return all(map(frozenset(range(q)).issuperset, rows))


def _window_rows(rows: Sequence[Sequence[int]], q: int, h: int, w: int) -> Iterator[Sequence[int]]:
    """For each top row, the codes of the h x w windows along it, left to right.

    A row is packed into one int, cell k in field k from the low end, each field
    wide enough for a window code, so that none carries into the next.  Shifted
    down k fields, the row puts cell j + k under cell j: so w - 1 shifts give
    each cell's run of w digits, and the last h runs, weighted by q^w, the codes.
    Fields of 1, 2, 4 or 8 bytes are read back as a native array (high field
    first on a big-endian host, hence ``_STEP``), wider ones one at a time.
    """
    span, qw, nbits = len(rows[0]) - w + 1, q**w, (q ** (h * w) - 1).bit_length()
    size = next((s for s in (1, 2, 4, 8) if 8 * s >= nbits), -(-nbits // 8))
    bits, typecode, buf = 8 * size, _TYPECODES.get(size), bytearray(size * len(rows[0]))
    mask, field, lines = (1 << bits * span) - 1, (1 << bits) - 1, []
    for r in rows:
        if q <= 256:  # a cell is the low byte of its field
            buf[::size] = bytes(r)
            line = p = int.from_bytes(buf, "little")
        else:
            line = p = sum(x << bits * k for k, x in enumerate(r))
        for k in range(1, w):
            line = line * q + (p >> bits * k)
        lines.append(line & mask)
        if len(lines) == h:
            codes = lines.pop(0)
            for line in lines:
                codes = codes * qw + line
            if typecode:
                yield array(typecode, codes.to_bytes(size * span, sys.byteorder))[::_STEP]
            else:
                yield [codes >> bits * k & field for k in range(span)]


def decode_windows(codes: Iterable[int], q: int, h: int, w: int) -> list[Block]:
    """The h x w blocks with the given codes, in the order given."""
    qw = q**w
    weights = [qw**k for k in reversed(range(h))]
    rows = [[c // p % qw for p in weights] for c in codes]
    lines = {r: tuple(r // q**k % q for k in reversed(range(w))) for r in set(chain.from_iterable(rows))}
    return [Block.stitched(tuple(map(lines.__getitem__, r))) for r in rows]


def _fit(blocks: Iterable[Block], h: int, w: int) -> list[Block]:
    """The blocks as a list; ValueError for one larger than the h x w window."""
    blocks = list(blocks)
    for b in blocks:
        if b.height > h or b.width > w:
            raise ValueError(f"block {b.height}x{b.width} exceeds window {h}x{w}")
    return blocks


def _allowed_codes(blocks: Iterable[Block], q: int, h: int, w: int) -> list[int]:
    """The codes of the h x w windows that contain none of the blocks, ascending.

    Each prefix grows by every symbol, a cell at a time, row-major, and a block's
    placement is tested at its last cell; from there an m x n block's rows are
    runs of n digits w apart (one run if n = w), so its code keys every
    placement of its shape.  The partial windows held are charged at each cell.
    """
    shapes = defaultdict(set)  # the codes of the blocks of each shape; the empty block's, 0, keys every window
    for b in blocks:
        shapes[b.height, b.width].add(sum(x * q**k for k, x in enumerate(reversed(b.cells))))
    codes, symbols = [0], range(q)
    for row, col in product(range(h), range(w)):
        if (held := len(codes) * q) > WINDOW_BUDGET:  # never within a window space of the budget
            done = f"{held} partial windows of {row * w + col + 1} cells"
            raise BudgetExceeded(
                f"allowed {h}x{w} windows: {done} exceed budget {WINDOW_BUDGET}",
                layer=f"allowed {h}x{w} windows", count=held, limit=WINDOW_BUDGET,
            )
        codes = [c * q + x for c in codes for x in symbols]
        for (m, n), keys in shapes.items():
            if m > row + 1 or n > col + 1:
                continue
            if m == 1 or n == w:
                run = q ** (n + (m - 1) * w)
                codes = [c for c in codes if c % run not in keys]
            else:
                qn, runs = q**n, [(q ** (j * w), q ** (j * n)) for j in range(m)]
                codes = [c for c in codes if sum(c // p % qn * s for p, s in runs) not in keys]
        if not codes:
            break
    return codes


class Overlaps(NamedTuple):
    """The parts of each allowed window that stitching compares or appends,
    one list per part indexed by identifier (index 0 is a dummy, None)."""

    rows: list  # the whole window, as a tuple of rows
    top: list  # the first h-1 rows
    bottom: list  # the last h-1 rows
    left: list  # the first w-1 columns, as a tuple of columns
    right: list  # the last w-1 columns
    blue: list  # the last row: the label of every blue edge into the window
    red: list  # the last column: the label of every red edge into the window
    corner: list  # the bottom-right symbol

    def blue_strip(self, path: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The rows a blue path spells: its head's rows, then the blue labels."""
        return self.rows[path[0]] + tuple(map(self.blue.__getitem__, path[1:]))

    def red_strip(self, path: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The rows a red path spells: each of its head's rows, extended by its
        row of the red labels (the head alone for a path of one window)."""
        if len(path) == 1:
            return self.rows[path[0]]
        return tuple(map(add, self.rows[path[0]], zip(*map(self.red.__getitem__, path[1:]))))


class ConstraintSystem:
    """Window size (h, w), forbidden set F, and the derived allowed set.

    F is given as blocks of any size up to h x w; a smaller block forbids every
    window that contains it.  Only the allowed windows are listed, numbered
    1..size in canonical order: the identifier bijection used as the vertex set
    of every presentation.  ``code_to_id`` maps each allowed window's code to
    its identifier; a window is forbidden iff its code is missing from it.  The
    complement, ``forbidden_codes`` and the blocks ``forbidden``, is built on
    first use and refused above a window space of ``WINDOW_BUDGET``.
    """

    def __init__(self, alphabet: Alphabet, h: int, w: int, forbidden: Iterable[Block]):
        if h < 1 or w < 1:
            raise ValueError(f"window size must be positive, got {h}x{w}")
        q = alphabet.size
        self.alphabet, self.h, self.w = alphabet, h, w
        blocks = _fit(forbidden, h, w)
        if not {x for b in blocks for r in b.rows for x in r} <= set(range(q)):
            raise ValueError(f"forbidden block uses a symbol outside 0..{q - 1}")
        allowed = _allowed_codes(blocks, q, h, w)
        self.allowed = tuple(decode_windows(allowed, q, h, w))
        self.code_to_id = dict(zip(allowed, range(1, len(allowed) + 1)))

    @cached_property
    def forbidden_codes(self) -> frozenset[int]:
        """The codes of the forbidden h x w windows, those missing from code_to_id."""
        return frozenset(range(_window_space(self.alphabet.size, self.h, self.w))).difference(self.code_to_id)

    @cached_property
    def forbidden(self) -> frozenset[Block]:
        """The forbidden h x w windows as blocks."""
        return frozenset(decode_windows(self.forbidden_codes, self.alphabet.size, self.h, self.w))

    @cached_property
    def overlaps(self) -> Overlaps:
        """The overlaps and edge labels of every allowed window; built on first use."""
        windows = ((b.rows, tuple(zip(*b.rows))) for b in self.allowed)
        parts = [(r, r[:-1], r[1:], c[:-1], c[1:], r[-1], c[-1], r[-1][-1]) for r, c in windows]
        return Overlaps(*map(list, zip((None,) * len(Overlaps._fields), *parts)))

    @cached_property
    def red_cells(self) -> list:
        """Each window's red label as h rows of one symbol (None at index 0),
        what a red edge adds to the rows of a strip; built on first use, with
        one tuple per distinct label."""
        cells: dict[tuple, tuple] = {}
        return [None] + [cells.setdefault(c, tuple(zip(c))) for c in self.overlaps.red[1:]]

    @cached_property
    def transposed_codes(self) -> frozenset[int]:
        """The codes of the allowed windows' transposes (their cells read column
        by column); built on first use."""
        weights = [self.alphabet.size**k for k in reversed(range(self.h * self.w))]
        return frozenset(sum(map(mul, weights, chain.from_iterable(zip(*b.rows)))) for b in self.allowed)

    def window_codes(self, b: Block, *, by_columns: bool = False) -> Iterator[Sequence[int]]:
        """Codes of b's h x w windows, one row at a time, or ``by_columns`` the
        codes of their transposes, one column at a time (the rows of b's
        transpose); ValueError for a symbol outside the alphabet, whose digit
        would alias another window's code."""
        q = self.alphabet.size
        if not _in_alphabet(b.rows, q):
            raise ValueError(f"block uses a symbol outside 0..{q - 1}")
        if b.height < self.h or b.width < self.w:
            return iter(())
        if by_columns:
            return _window_rows([[r[j] for r in b.rows] for j in range(b.width)], q, self.w, self.h)
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
        """Top-left corner of the first forbidden window in row-major scan, if any.

        A row of windows costs one packed int per block row whatever its width,
        so a block taller than wide is scanned by columns instead, against the
        transposed codes, and the first corner is the least over the columns.
        """
        tall = b.height > b.width
        known = self.transposed_codes if tall else self.code_to_id
        firsts = []  # by columns: each column's first forbidden corner
        for k, codes in enumerate(self.window_codes(b, by_columns=tall), 1):
            if not all(map(known.__contains__, codes)):
                first = next(i for i, c in enumerate(codes, 1) if c not in known)
                if not tall:
                    return k, first
                firsts.append((first, k))
        return min(firsts, default=None)

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
    space = _window_space(q, h, w)
    allowed = _allowed_codes([p for p in patterns if _in_alphabet(p.rows, q)], q, h, w)
    return frozenset(decode_windows(frozenset(range(space)).difference(allowed), q, h, w))
