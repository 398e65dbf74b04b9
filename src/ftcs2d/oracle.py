"""Brute-force reference implementations, independent of the graph machinery.

Everything here works directly from the forbidden set: enumeration scans the
full symbol space with window pruning, counting runs a plain dynamic program
over full symbol rows.  Neither touches presentations, so agreement with the
graph-derived results is a real cross-check.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Iterator

from .blocks import Block, BudgetExceeded, ConstraintSystem

ENUM_BUDGET = 1 << 24  # candidate blocks
COUNT_BUDGET = 1 << 20  # row states


def _check_size(cs: ConstraintSystem, m: int, n: int) -> None:
    if m < cs.h or n < cs.w:
        raise ValueError(f"size {m}x{n} below window size {cs.h}x{cs.w}")


def enumerate_members(
    cs: ConstraintSystem, m: int, n: int, budget: int = ENUM_BUDGET
) -> Iterator[Block]:
    """All m x n members in canonical order, by depth-first scan.

    A window is rejected as soon as its last cell is placed, so forbidden
    prefixes are pruned without expanding the remaining cells.  The scan
    keeps one iterator of symbols per placed cell on an explicit stack, so no
    block size meets the recursion limit.
    """
    _check_size(cs, m, n)
    q = cs.alphabet.size
    if q ** (m * n) > budget:
        message = f"{q}^{m * n} candidates exceed budget {budget}"
        raise BudgetExceeded(message, layer="oracle enumeration", count=q ** (m * n), limit=budget)
    h, w = cs.h, cs.w
    forbidden = {f.rows for f in cs.forbidden}
    grid = [[0] * n for _ in range(m)]
    stack = [iter(range(q))]  # stack[pos]: the symbols left to try at cell pos
    while stack:
        sym = next(stack[-1], None)
        if sym is None:
            stack.pop()
            continue
        i, j = divmod(len(stack) - 1, n)
        grid[i][j] = sym
        if i >= h - 1 and j >= w - 1:
            win = tuple(tuple(grid[i - h + 1 + di][j - w + 1 : j + 1]) for di in range(h))
            if win in forbidden:
                continue
        if len(stack) == m * n:
            yield Block(tuple(tuple(r) for r in grid))
        else:
            stack.append(iter(range(q)))


def count_members(cs: ConstraintSystem, m: int, n: int, budget: int = COUNT_BUDGET) -> int:
    """Exact member count via a row-by-row dynamic program over symbol rows.

    The state is the tuple of the last h-1 rows; a new row is admitted when it
    completes no forbidden window against that state.  Purely forbidden-set
    driven, so it stays independent of any presentation.
    """
    _check_size(cs, m, n)
    q = cs.alphabet.size
    if q**n > budget:
        message = f"{q}^{n} row states exceed budget {budget}"
        raise BudgetExceeded(message, layer="oracle count", count=q**n, limit=budget)
    h, w = cs.h, cs.w
    forbidden = {f.rows for f in cs.forbidden}
    rows = list(product(range(q), repeat=n))
    ok_cache: dict[tuple, bool] = {}

    def ok(state: tuple, row: tuple[int, ...]) -> bool:
        if len(state) < h - 1:
            return True
        key = state + (row,)
        hit = ok_cache.get(key)
        if hit is None:
            strip = key  # exactly h rows
            hit = not any(
                tuple(r[j : j + w] for r in strip) in forbidden
                for j in range(n - w + 1)
            )
            ok_cache[key] = hit
        return hit

    states: dict[tuple, int] = {(): 1}
    for _ in range(m):
        new: dict[tuple, int] = defaultdict(int)
        for state, cnt in states.items():
            for row in rows:
                if ok(state, row):
                    ns = (state + (row,))[-(h - 1):] if h > 1 else ()
                    new[ns] += cnt
        states = new
    return sum(states.values())
