"""Finite two-dimensional blocks over a finite alphabet.

A block is an m x n array of symbol indices.  Coordinates are 1-based with
``(i, j)`` naming row ``i``, column ``j``.  Degenerate blocks (zero height or
zero width) all collapse to the single empty block ``EMPTY``.

A :class:`ConstraintSystem` fixes a window size ``(h, w)`` and a forbidden set
of ``h x w`` blocks; a block is a member of the system when none of its
``h x w`` windows is forbidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator


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

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Block":
        return cls(tuple(tuple(r) for r in rows))

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def cells(self) -> tuple[int, ...]:
        """Row-major flattening; also the canonical-order sort key."""
        return tuple(c for r in self.rows for c in r)

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

    def windows(self, h: int, w: int) -> Iterator[tuple[tuple[int, int], "Block"]]:
        """All h x w subblocks with their 1-based top-left corners, row-major."""
        for i in range(1, self.height - h + 2):
            for j in range(1, self.width - w + 2):
                yield (i, j), self.subblock(i, j, h, w)

    def contains(self, other: "Block") -> bool:
        """True when ``other`` appears as a subblock (the empty block always does)."""
        if other.is_empty():
            return True
        return any(sub == other for _, sub in self.windows(other.height, other.width))

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
        if i < 0:
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


class ConstraintSystem:
    """Window size (h, w), forbidden set F, and the derived allowed set.

    Allowed blocks are numbered 1..size in canonical order; this numbering is
    the identifier bijection used as the vertex set of every presentation.
    """

    def __init__(self, alphabet: Alphabet, h: int, w: int, forbidden: Iterable[Block]):
        if h < 1 or w < 1:
            raise ValueError(f"window size must be positive, got {h}x{w}")
        forbidden = frozenset(forbidden)
        for f in forbidden:
            if (f.height, f.width) != (h, w):
                raise ValueError(
                    f"forbidden block is {f.height}x{f.width}, expected {h}x{w}"
                )
            self._check_symbols(alphabet, f)
        self.alphabet = alphabet
        self.h = h
        self.w = w
        self.forbidden = forbidden
        self.allowed = tuple(
            b for b in all_blocks(alphabet.size, h, w) if b not in forbidden
        )
        self._ident = {b: k for k, b in enumerate(self.allowed, start=1)}

    @staticmethod
    def _check_symbols(alphabet: Alphabet, b: Block) -> None:
        if b.rows and max(b.cells) >= alphabet.size:
            raise ValueError(
                f"block uses symbol index {max(b.cells)}, alphabet has {alphabet.size}"
            )

    @property
    def size(self) -> int:
        """Number of allowed h x w blocks."""
        return len(self.allowed)

    def block(self, k: int) -> Block:
        if not 1 <= k <= self.size:
            raise ValueError(f"identifier {k} out of range 1..{self.size}")
        return self.allowed[k - 1]

    def identifier(self, b: Block) -> int | None:
        """Identifier of an allowed block, or None if b is forbidden or wrong-sized."""
        return self._ident.get(b)

    def first_forbidden_window(self, b: Block) -> tuple[int, int] | None:
        """Top-left corner of the first forbidden window in row-major scan, if any."""
        self._check_symbols(self.alphabet, b)
        if b.height < self.h or b.width < self.w:
            return None
        for (i, j), win in b.windows(self.h, self.w):
            if win in self.forbidden:
                return (i, j)
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
    be expressed as a uniform-size forbidden set.
    """
    patterns = list(patterns)
    for p in patterns:
        if p.height > h or p.width > w:
            raise ValueError(f"pattern {p.height}x{p.width} exceeds window {h}x{w}")
    if not patterns:
        return frozenset()
    return frozenset(
        b for b in all_blocks(alphabet.size, h, w) if any(b.contains(p) for p in patterns)
    )
