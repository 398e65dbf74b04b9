"""Reference computations for checking ftcs2d, written apart from the package.

Nothing here imports ftcs2d: these functions know neither the graphs nor the
package's oracle.  A block is a tuple of row tuples of symbol indices; a
system is an alphabet size ``q``, a window size ``h x w`` and a set of
forbidden windows, each an ``h x w`` block in the same form.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Callable, Iterable, Iterator

Rows = tuple[tuple[int, ...], ...]


def all_windows(q: int, h: int, w: int) -> Iterator[Rows]:
    """Every h x w block over q symbols, in row-major lexicographic order."""
    for cells in product(range(q), repeat=h * w):
        yield tuple(cells[r * w : (r + 1) * w] for r in range(h))


def windows_where(q: int, h: int, w: int, bad: Callable[[Rows], bool]) -> frozenset[Rows]:
    """The h x w windows for which ``bad`` holds: a system defined by a rule."""
    return frozenset(win for win in all_windows(q, h, w) if bad(win))


def adjacent_equal(win: Rows, symbol: int | None = None) -> bool:
    """True when two edge-adjacent cells hold the same symbol (``symbol``, if given)."""
    h, w = len(win), len(win[0])
    for i in range(h):
        for j in range(w):
            s = win[i][j]
            if symbol is not None and s != symbol:
                continue
            if (j + 1 < w and win[i][j + 1] == s) or (i + 1 < h and win[i + 1][j] == s):
                return True
    return False


def first_forbidden(block: Rows, forbidden: frozenset[Rows], h: int, w: int) -> tuple[int, int] | None:
    """1-based top-left corner of the first forbidden window in row-major order."""
    m = len(block)
    n = len(block[0]) if m else 0
    for i in range(m - h + 1):
        rows = block[i : i + h]
        for j in range(n - w + 1):
            if tuple(r[j : j + w] for r in rows) in forbidden:
                return (i + 1, j + 1)
    return None


def plant(block: Rows, window: Rows, top: int, left: int) -> Rows:
    """A copy of ``block`` with ``window`` written at 0-based (top, left)."""
    rows = [list(r) for r in block]
    for di, wrow in enumerate(window):
        rows[top + di][left : left + len(wrow)] = wrow
    return tuple(tuple(r) for r in rows)


class Transfer:
    """Symbol-row transfer counts for one system at one block width ``n``.

    A state is the last ``h - 1`` rows of a partial block; a row may follow a
    state when the ``h``-row strip they make has no forbidden window.  Rows are
    grown cell by cell and cut as soon as a window is forbidden, so only the
    rows that can follow are ever built.
    """

    def __init__(self, forbidden: Iterable[Rows], q: int, h: int, w: int, n: int):
        self.forbidden = frozenset(forbidden)
        self.q, self.h, self.w, self.n = q, h, w, n
        self._succ: dict[Rows, tuple[tuple[int, ...], ...]] = {}
        self._strips: list[Rows] | None = None

    def _window_ok(self, rows: Rows, j: int) -> bool:
        return tuple(r[j - self.w + 1 : j + 1] for r in rows) not in self.forbidden

    def strips(self) -> list[Rows]:
        """Every h x n block with no forbidden window, grown column by column."""
        if self._strips is None:
            h, w, n = self.h, self.w, self.n
            columns = list(product(range(self.q), repeat=h))
            partial: list[tuple[tuple[int, ...], ...]] = [()]
            for j in range(n):
                grown = []
                for cols in partial:
                    for c in columns:
                        nxt = cols + (c,)
                        if j >= w - 1:
                            win = tuple(tuple(col[i] for col in nxt[j - w + 1 :]) for i in range(h))
                            if win in self.forbidden:
                                continue
                        grown.append(nxt)
                partial = grown
            self._strips = [tuple(tuple(col[i] for col in cols) for i in range(h)) for cols in partial]
        return self._strips

    def successors(self, state: Rows) -> tuple[tuple[int, ...], ...]:
        """Rows that may follow the h - 1 rows of ``state``."""
        got = self._succ.get(state)
        if got is None:
            partial: list[tuple[int, ...]] = [()]
            for j in range(self.n):
                grown = []
                for row in partial:
                    for s in range(self.q):
                        nxt = row + (s,)
                        if j < self.w - 1 or self._window_ok(state + (nxt,), j):
                            grown.append(nxt)
                partial = grown
            got = self._succ[state] = tuple(partial)
        return got

    def _step(self, counts: dict[Rows, int]) -> dict[Rows, int]:
        new: dict[Rows, int] = defaultdict(int)
        for state, c in counts.items():
            for row in self.successors(state):
                new[(state + (row,))[1:]] += c
        return new

    def count(self, m: int) -> int:
        """N(m, n): the number of m x n blocks with no forbidden window."""
        if m < self.h or self.n < self.w:
            return self.q ** (m * self.n)
        counts: dict[Rows, int] = defaultdict(int)
        for strip in self.strips():
            counts[strip[1:]] += 1
        for _ in range(m - self.h):
            counts = self._step(counts)
        return sum(counts.values())

    def wrapped(self, max_m: int) -> dict[int, int]:
        """Counts of m x n blocks with vertical wraparound, for m = h..max_m.

        Rows are taken modulo m, so every one of the m window rows, including
        those across the seam, must be free of forbidden windows.  The count
        is the number of closed walks of length m over the states.
        """
        out = {m: 0 for m in range(self.h, max_m + 1)}
        if self.n < self.w:
            return {m: self.q ** (m * self.n) for m in out}
        starts = {strip[: self.h - 1] for strip in self.strips()}
        for s0 in starts:
            counts = {s0: 1}
            for m in range(1, max_m + 1):
                counts = self._step(counts)
                if m in out:
                    out[m] += counts.get(s0, 0)
        return out
