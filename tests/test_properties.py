"""Graph-derived strips, enumerations, counts and generated blocks against the
oracle, and the window-code scans against naive per-window scans, on random
small systems including the degenerate ones."""

import random
from collections import Counter, defaultdict
from itertools import product

import pytest
from conftest import brute_periodic
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ftcs2d import (
    Alphabet,
    Block,
    ConstraintSystem,
    DeadEnd,
    GenerationPolicy,
    GenerationStats,
    IdentifierGrid,
    NotRealizable,
    Presentation,
    all_blocks,
    build,
    candidates,
    class_view,
    column_presentation,
    count_by_profile,
    count_members,
    count_periodic,
    embed_forbidden,
    enumerate_blocks,
    enumerate_members,
    generate_block,
    is_generated,
    quadruples,
    row_presentation,
)
from ftcs2d.fileformat import format_system, parse_system
from ftcs2d.generation import SCHEDULES, enumerate_col_strips, enumerate_row_strips, fill_grid, schedule_cells
from ftcs2d.presentation import fillings

MAX_CANDIDATES = 4096  # q ** (m * n) for the oracle's scan, to keep the suite fast

BINARY, TERNARY = Alphabet("01"), Alphabet("abc")
FREE = ConstraintSystem(BINARY, 2, 2, ())
EMPTY = ConstraintSystem(BINARY, 2, 2, all_blocks(2, 2, 2))
ROW_WINDOW = ConstraintSystem(TERNARY, 1, 2, [TERNARY.parse_block(["aa"])])
COL_WINDOW = ConstraintSystem(BINARY, 2, 1, [BINARY.parse_block(["1", "1"])])


@st.composite
def systems(draw):
    q = draw(st.integers(2, 3))
    h = draw(st.integers(1, 2))
    w = draw(st.integers(1, 2))
    forbidden = draw(st.sets(st.sampled_from(list(all_blocks(q, h, w)))))
    return ConstraintSystem(Alphabet("abc"[:q]), h, w, forbidden)


def sizes(cs, m_extra, n_extra):
    m, n = cs.h + m_extra, cs.w + n_extra
    assume(cs.alphabet.size ** (m * n) <= MAX_CANDIDATES)
    return m, n


def canonical(blocks):
    return sorted(blocks, key=lambda b: b.cells)


walker_settings = settings(deadline=None, max_examples=60)
extras = st.integers(0, 3)


@walker_settings
@given(cs=systems(), m_extra=extras, n_extra=extras)
@example(cs=FREE, m_extra=1, n_extra=1)
@example(cs=EMPTY, m_extra=1, n_extra=1)
@example(cs=ROW_WINDOW, m_extra=1, n_extra=2)
@example(cs=COL_WINDOW, m_extra=2, n_extra=1)
def test_strips_match_oracle(cs, m_extra, n_extra):
    m, n = sizes(cs, m_extra, n_extra)
    g, gc = build(cs), column_presentation(cs)
    rows = list(enumerate_members(cs, m, cs.w))
    cols = list(enumerate_members(cs, cs.h, n))
    assert canonical(enumerate_row_strips(g, m)) == rows
    assert canonical(enumerate_col_strips(g, n)) == cols
    assert canonical(s for k in gc.vertices for s in class_view(gc, k).strips(n)) == cols


# -- the one-colour views: each reads only the edges of its colour ------------


@walker_settings
@given(cs=systems(), m_extra=extras)
@example(cs=ROW_WINDOW, m_extra=2)
@example(cs=COL_WINDOW, m_extra=2)
def test_row_presentation_counts_strips(cs, m_extra):
    m = cs.h + m_extra
    assert count_by_profile(row_presentation(cs), m, cs.w) == count_members(cs, m, cs.w)


@walker_settings
@given(cs=systems(), n_extra=extras)
@example(cs=ROW_WINDOW, n_extra=2)
@example(cs=COL_WINDOW, n_extra=2)
def test_column_presentation_counts_strips(cs, n_extra):
    n = cs.w + n_extra
    assert count_by_profile(column_presentation(cs), cs.h, n) == count_members(cs, cs.h, n)


@walker_settings
@given(cs=systems(), n_extra=st.integers(0, 2))
@example(cs=FREE, n_extra=2)
@example(cs=ROW_WINDOW, n_extra=2)
def test_class_view_reads_red_edges(cs, n_extra):
    n = cs.w + n_extra
    g, gc = build(cs), column_presentation(cs)
    for k in g.vertices:
        assert list(class_view(g, k).strips(n)) == list(class_view(gc, k).strips(n))


@walker_settings
@given(cs=systems(), m_extra=extras, n_extra=extras)
@example(cs=FREE, m_extra=1, n_extra=1)
@example(cs=EMPTY, m_extra=1, n_extra=1)
@example(cs=ROW_WINDOW, m_extra=1, n_extra=2)
@example(cs=COL_WINDOW, m_extra=2, n_extra=1)
@example(cs=FREE, m_extra=0, n_extra=2)
@example(cs=FREE, m_extra=2, n_extra=0)
@example(cs=FREE, m_extra=0, n_extra=0)
def test_enumerate_blocks_matches_oracle(cs, m_extra, n_extra):
    """The members, and, in order and with the same counters, the blocks of a
    reference that stitches every filling; grids of one row, one column and
    one cell included (an extra of 0)."""
    m, n = sizes(cs, m_extra, n_extra)
    g = build(cs)
    members = list(enumerate_members(cs, m, n))
    for schedule in SCHEDULES:
        stats, want = GenerationStats(), GenerationStats()
        got = list(enumerate_blocks(g, m, n, schedule, stats))
        assert canonical(got) == members
        assert got == list(reference_enumeration(g, m, n, schedule, want)) and stats == want


def test_enumerate_blocks_checks_every_leaf(hard_square):
    """A completion slipped in after the true ones disagrees with the grid: the
    AssertionError of the reference's to_block, on every schedule."""
    g = build(hard_square)
    true = g.completions
    g.__dict__["completions"] = lambda b, c: true(b, c) + (next(d for d in g.vertices if d not in true(b, c)),)
    for schedule in SCHEDULES:
        errors = []
        reference = reference_enumeration(g, 3, 3, schedule, GenerationStats())
        for blocks in (enumerate_blocks(g, 3, 3, schedule), reference):
            with pytest.raises(AssertionError, match="overlap disagreement") as e:
                list(blocks)
            errors.append(str(e.value))
        assert errors[0] == errors[1]


def reference_enumeration(g, m, n, schedule, stats):
    """Every filling of a fresh grid, cell by cell in schedule order with the
    ``candidates`` of each, each leaf stitched by ``to_block``; ``stats``
    counts the identifiers placed and the cells reached with no candidate."""
    grid = IdentifierGrid(g.system, m, n)
    cells = schedule_cells(schedule, m, n, g.system.h, g.system.w)

    def fill(t):
        if t == len(cells):
            yield grid.to_block()
            return
        options = candidates(g, grid, *cells[t])
        stats.backtracks += not options
        for k in options:
            grid.set(*cells[t], k)
            stats.steps += 1
            yield from fill(t + 1)

    return fill(0)


@walker_settings
@given(
    cs=systems(),
    m_extra=extras,
    n_extra=extras,
    seed=st.integers(0, 2**32 - 1),
    schedule=st.sampled_from(SCHEDULES),
)
@example(cs=FREE, m_extra=1, n_extra=1, seed=0, schedule=SCHEDULES[0])
@example(cs=EMPTY, m_extra=1, n_extra=1, seed=0, schedule=SCHEDULES[0])
@example(cs=ROW_WINDOW, m_extra=1, n_extra=2, seed=0, schedule=SCHEDULES[1])
@example(cs=COL_WINDOW, m_extra=2, n_extra=1, seed=0, schedule=SCHEDULES[2])
def test_generate_block_member_or_not_realizable(cs, m_extra, n_extra, seed, schedule):
    m, n = cs.h + m_extra, cs.w + n_extra
    g = build(cs)
    policy = GenerationPolicy(schedule=schedule, seed=seed)
    if count_members(cs, m, n) == 0:
        with pytest.raises(NotRealizable):
            generate_block(g, m, n, policy)
    else:
        b = generate_block(g, m, n, policy)
        assert (b.height, b.width) == (m, n)
        assert cs.is_member(b)


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.one_of(st.sampled_from((2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65)), st.integers(0, 70)),
)
@example(seed=0, n=2)
def test_inline_draws_equal_shuffle(seed, n):
    """The fill's own draws over a cell's candidates leave them in the order
    ``random.Random.shuffle`` does and consume the same bits: the second cell
    of a one-row grid, whose candidates are n red successors of the first."""
    items = list(range(10, 10 + n))
    g = Presentation(FREE, {}, {1: tuple(items)})
    want, got = random.Random(seed), random.Random(seed)
    want.shuffle(items)
    assert list(next(fillings(g, [1, 0], [1], 2, got.getrandbits), ())) == items
    assert got.getrandbits(64) == want.getrandbits(64)


def reference_fill(g, grid, policy, stats):
    """``fill_grid`` written out: a recursive DFS over the empty cells in
    schedule order, trying the ``candidates`` of each in
    ``random.Random(seed).shuffle`` order (as they come when ordered)."""
    cs, cols = g.system, grid.grid_cols
    cells = [c for c in schedule_cells(policy.schedule, grid.m, grid.n, cs.h, cs.w) if not grid.filled(*c)]
    rng = random.Random(policy.seed)

    def fill(t):
        if t == len(cells):
            return True
        options = list(candidates(g, grid, *cells[t]))
        if not options:
            if not policy.backtracking:
                raise DeadEnd(f"no candidates at cell ({cells[t][0]},{cells[t][1]})")
            stats.backtracks += 1
        if policy.chooser == "random":
            rng.shuffle(options)
        for k in options:
            grid.set(*cells[t], k)
            stats.steps += 1
            if fill(t + 1):
                return True
        return False

    if cs.size == 0:
        raise NotRealizable("empty vertex set")
    if not fill(0):
        for i, j in cells:
            grid.ids[(i - cs.h) * cols + j - cs.w] = 0
        raise NotRealizable(f"no {grid.m}x{grid.n} member exists")


def fill_outcome(fill, g, grid, policy):
    """What a fill leaves: the grid's identifiers, its counters and its error text."""
    stats = GenerationStats()
    try:
        fill(g, grid, policy, stats)
        error = None
    except (DeadEnd, NotRealizable) as e:
        error = f"{type(e).__name__}: {e}"
    return grid.ids, stats, error


@walker_settings
@given(
    cs=systems(),
    m_extra=extras,
    n_extra=extras,
    seed=st.integers(0, 2**32 - 1),
    prefilled=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 80)), max_size=3),
)
@example(cs=FREE, m_extra=1, n_extra=1, seed=0, prefilled=[])
@example(cs=FREE, m_extra=2, n_extra=1, seed=1, prefilled=[(0, 0)])
@example(cs=EMPTY, m_extra=1, n_extra=1, seed=0, prefilled=[])
@example(cs=ROW_WINDOW, m_extra=0, n_extra=3, seed=2, prefilled=[(0, 4), (2, 1)])
@example(cs=COL_WINDOW, m_extra=3, n_extra=0, seed=3, prefilled=[(0, 1)])
def test_fill_matches_reference_dfs(cs, m_extra, n_extra, seed, prefilled):
    """On every schedule, chooser and backtracking setting: ``generate_block``
    and the reference give the same block, counters and error text, and so
    does ``fill_grid`` on a grid with pre-filled cells (offset p % cells gets
    identifier k % |A_F| + 1), where the first empty cell need not be the
    grid's first."""
    m, n = sizes(cs, m_extra, n_extra)
    g = build(cs)
    for schedule, chooser, backtracking in product(SCHEDULES, ("random", "ordered"), (True, False)):
        policy = GenerationPolicy(schedule, chooser, backtracking, seed)
        got_stats = GenerationStats()
        try:
            got = generate_block(g, m, n, policy, got_stats)
        except (DeadEnd, NotRealizable) as e:
            got = f"{type(e).__name__}: {e}"
        grid = IdentifierGrid(cs, m, n)
        _, want_stats, error = fill_outcome(reference_fill, g, grid, policy)
        assert (got, got_stats) == (error or grid.to_block(), want_stats)
        outcomes = []
        for fill in (fill_grid, reference_fill):
            grid = IdentifierGrid(cs, m, n)
            for p, k in prefilled if cs.size else ():
                p %= len(grid.ids)
                grid.set(cs.h + p // grid.grid_cols, cs.w + p % grid.grid_cols, k % cs.size + 1)
            outcomes.append(fill_outcome(fill, g, grid, policy))
        assert outcomes[0] == outcomes[1]


@walker_settings
@given(cs=systems(), m_extra=extras, n_extra=extras)
@example(cs=FREE, m_extra=1, n_extra=1)
@example(cs=EMPTY, m_extra=1, n_extra=1)
@example(cs=ROW_WINDOW, m_extra=0, n_extra=2)
@example(cs=COL_WINDOW, m_extra=2, n_extra=1)
def test_counts_match_oracle(cs, m_extra, n_extra):
    m, n = sizes(cs, m_extra, n_extra)
    g = build(cs)
    assert count_by_profile(g, m, n) == count_members(cs, m, n)
    assert count_periodic(g, m, n) == [brute_periodic(cs, m, k) for k in range(cs.w, n + 1)]


@walker_settings
@given(cs=systems())
@example(cs=EMPTY)
@example(cs=ROW_WINDOW)
@example(cs=COL_WINDOW)
def test_quadruple_table_matches_definition(cs):
    """Length, iteration and membership, derived from the completions of each
    corner, against the 4-tuples of the definition."""
    assume(cs.size <= 9)
    g = build(cs)
    quads = {
        (a, b, c, d)
        for a, b, c, d in product(g.vertices, repeat=4)
        if g.has_red(a, b) and g.has_blue(a, c) and g.has_red(c, d) and g.has_blue(b, d)
    }
    t = g.quadruple_table
    assert len(t) == len(quads) and sorted(t) == sorted(quads)
    assert {q for q in product(range(cs.size + 2), repeat=4) if q in t} == quads


@walker_settings
@given(cs=systems())
@example(cs=FREE)
@example(cs=EMPTY)
@example(cs=ROW_WINDOW)
@example(cs=COL_WINDOW)
def test_quadruple_count_matches_iteration(cs):
    """The length, counted as N(h + 1, w + 1), against the quadruples walked,
    also on the one-colour views, which have none."""
    for g in (build(cs), row_presentation(cs), column_presentation(cs)):
        t = quadruples(g)
        assert len(t) == sum(1 for _ in t)


# -- window scans against naive references that slice one Block per window ----

# (q, h, w) with q^(h*w) <= 4096, so that every example builds quickly
WINDOW_SHAPES = [
    (q, h, w) for q in (2, 3, 4) for h in (1, 2, 3) for w in (1, 2, 3) if q ** (h * w) <= 4096
]


def window_system(q, h, w, density, seed):
    """Each q-symbol h x w window forbidden with probability ``density``."""
    rng = random.Random(seed)
    forbidden = [b for b in all_blocks(q, h, w) if rng.random() < density]
    return ConstraintSystem(Alphabet("abcd"[:q]), h, w, forbidden)


@st.composite
def window_systems(draw):
    """Random systems with 2-4 symbols and windows up to 3x3; a density of 0
    gives the free system, 1 the empty one."""
    q, h, w = draw(st.sampled_from(WINDOW_SHAPES))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    return window_system(q, h, w, density, draw(st.integers(0, 2**32 - 1)))


def random_block(draw, q, max_m, max_n, min_m=0, min_n=0):
    m, n = draw(st.integers(min_m, max_m)), draw(st.integers(min_n, max_n))
    return Block(tuple(tuple(draw(st.integers(0, q - 1)) for _ in range(n)) for _ in range(m)))


@st.composite
def system_and_block(draw, at_least_window=False):
    """A system and a block over its alphabet (smaller than the window unless
    ``at_least_window``), in half the cases with one forbidden window planted."""
    cs = draw(window_systems())
    lo_m, lo_n = (cs.h, cs.w) if at_least_window else (0, 0)
    b = random_block(draw, cs.alphabet.size, cs.h + 4, cs.w + 4, lo_m, lo_n)
    if cs.forbidden and b.height >= cs.h and b.width >= cs.w and draw(st.booleans()):
        win = draw(st.sampled_from(sorted(cs.forbidden, key=lambda f: f.cells)))
        top, left = draw(st.integers(0, b.height - cs.h)), draw(st.integers(0, b.width - cs.w))
        rows = [list(r) for r in b.rows]
        for i, r in enumerate(win.rows):
            rows[top + i][left : left + cs.w] = r
        b = Block(rows)
    return cs, b


def naive_windows(b, h, w):
    """Every h x w window of b with its 1-based top-left corner, row-major."""
    return [
        ((i + 1, j + 1), Block(tuple(r[j : j + w] for r in b.rows[i : i + h])))
        for i in range(b.height - h + 1)
        for j in range(b.width - w + 1)
    ]


def naive_identifier(cs, win):
    return cs.allowed.index(win) + 1 if win in cs.allowed else None


def naive_contains(b, p):
    return p.is_empty() or any(win == p for _, win in naive_windows(b, p.height, p.width))


scan_settings = settings(deadline=None, max_examples=80)


@scan_settings
@given(case=system_and_block())
def test_first_forbidden_window_matches_naive(case):
    cs, b = case
    naive = next((corner for corner, win in naive_windows(b, cs.h, cs.w) if win in cs.forbidden), None)
    assert cs.first_forbidden_window(b) == naive
    assert cs.is_member(b) == (naive is None)


@scan_settings
@given(case=system_and_block())
def test_identifier_matches_naive(case):
    cs, b = case
    for _, win in naive_windows(b, cs.h, cs.w):
        assert cs.identifier(win) == naive_identifier(cs, win)
    assert [cs.identifier(cs.block(k)) for k in range(1, cs.size + 1)] == list(range(1, cs.size + 1))


@scan_settings
@given(case=system_and_block(at_least_window=True), data=st.data())
def test_is_generated_matches_naive(case, data):
    """Also on a graph with one edge the block walks removed: adjacent windows
    of a block always overlap, so only a missing edge tells the walk check
    from a plain membership scan."""
    cs, b = case
    if data.draw(st.booleans()):  # allow b's windows, so that every one is a vertex
        allowed = {win for _, win in naive_windows(b, cs.h, cs.w)}
        cs = ConstraintSystem(cs.alphabet, cs.h, cs.w, cs.forbidden - allowed)
    g = build(cs)
    ids = {(i, j): naive_identifier(cs, win) for (i, j), win in naive_windows(b, cs.h, cs.w)}
    walked = sorted(
        (colour, k, ids[nxt])
        for (i, j), k in ids.items()
        for colour, nxt in (("red", (i, j + 1)), ("blue", (i + 1, j)))
        if nxt in ids and None not in (k, ids[nxt])
    )
    if walked and data.draw(st.booleans()):
        colour, u, v = data.draw(st.sampled_from(walked))
        edges = {"blue": dict(g.blue), "red": dict(g.red)}
        edges[colour][u] = tuple(x for x in edges[colour][u] if x != v)
        g = Presentation(cs, edges["blue"], edges["red"])
    naive = None not in ids.values() and all(
        ((i, j + 1) not in ids or g.has_red(k, ids[i, j + 1]))
        and ((i + 1, j) not in ids or g.has_blue(k, ids[i + 1, j]))
        for (i, j), k in ids.items()
    )
    assert is_generated(g, b) == naive


def naive_walk(g, b):
    """The walk check written out: every window a vertex, and an edge of the
    right colour from each window to its right and lower neighbours."""
    cs = g.system
    ids = {(i, j): naive_identifier(cs, win) for (i, j), win in naive_windows(b, cs.h, cs.w)}
    return None not in ids.values() and all(
        ((i, j + 1) not in ids or g.has_red(k, ids[i, j + 1]))
        and ((i + 1, j) not in ids or g.has_blue(k, ids[i + 1, j]))
        for (i, j), k in ids.items()
    )


@scan_settings
@given(case=system_and_block())
def test_is_generated_is_membership_on_overlap_graphs(case):
    """On the graph, both one-colour views and a content-equal copy of the
    graph against the naive pair walk; on the graph it is plain membership."""
    cs, b = case
    g = build(cs)
    if b.height < cs.h or b.width < cs.w:
        with pytest.raises(ValueError):
            is_generated(g, b)
        return
    assert is_generated(g, b) == cs.is_member(b)
    copy = Presentation(cs, dict(g.blue), dict(g.red))
    assert copy.overlap_colours == g.overlap_colours == (True, True)
    for view in (g, copy, row_presentation(cs), column_presentation(cs)):
        assert is_generated(view, b) == naive_walk(view, b)


# (q, h, w) for q in 1..5 and h, w in 1..4 with at most 2^16 windows; their codes fit fields of 1 or 2 bytes
KERNEL_SHAPES = [
    (q, h, w) for q in range(1, 6) for h in range(1, 5) for w in range(1, 5) if q ** (h * w) <= 1 << 16
]


@st.composite
def kernel_case(draw):
    """A system of up to three patterns and up to eight windows, and a block
    whose sides are drawn among 0, 1, the window's and a little more, in half
    the cases with a pattern planted."""
    q, h, w = draw(st.sampled_from(KERNEL_SHAPES))
    patterns = [random_block(draw, q, h, w, 1, 1) for _ in range(draw(st.integers(0, 3)))]
    windows = [random_block(draw, q, h, w, h, w) for _ in range(draw(st.integers(0, 8)))]
    cs = ConstraintSystem(Alphabet("abcde"[:q]), h, w, patterns + windows)
    m, n = draw(st.sampled_from([0, 1, h, h + 1, h + 3])), draw(st.sampled_from([0, 1, w, w + 1, w + 3]))
    rows = [[draw(st.integers(0, q - 1)) for _ in range(n)] for _ in range(m)]
    if patterns and m >= h and n >= w and draw(st.booleans()):
        p = draw(st.sampled_from(patterns))
        top, left = draw(st.integers(0, m - p.height)), draw(st.integers(0, n - p.width))
        for i, r in enumerate(p.rows):
            rows[top + i][left : left + p.width] = r
    return cs, Block(rows)


@settings(deadline=None, max_examples=100)
@given(case=kernel_case())
def test_window_kernel_matches_naive(case):
    cs, b = case
    ids = {win: k for k, win in enumerate(cs.allowed, 1)}
    wins = naive_windows(b, cs.h, cs.w)
    assert cs.first_forbidden_window(b) == next((corner for corner, win in wins if win not in ids), None)
    for _, win in wins:
        assert cs.identifier(win) == ids.get(win)


@pytest.mark.parametrize("h, w", [(2, 2), (3, 3), (4, 5), (5, 8), (9, 8)])
def test_window_kernel_field_widths(h, w):
    """Binary windows of 4, 9, 20, 40 and 72 cells: codes in fields of 1, 2, 4
    and 8 bytes, and past 8 bytes.  Forbidding 01, 10 and their transposes
    leaves the two constant windows; one planted 0 is first seen by the
    first window that covers it."""
    cs = ConstraintSystem(BINARY, h, w, [Block(((0, 1),)), Block(((1, 0),)), Block(((0,), (1,))), Block(((1,), (0,)))])
    assert cs.allowed == (Block(((0,) * w,) * h), Block(((1,) * w,) * h))
    ones = Block(((1,) * 20,) * 20)
    assert cs.first_forbidden_window(ones) is None and is_generated(build(cs), ones)
    assert cs.identifier(cs.allowed[1]) == 2 and cs.identifier(ones.subblock(3, 4, h, w)) == 2
    for i, j in ((1, 1), (7, 13), (20, 20)):
        rows = [list(r) for r in ones.rows]
        rows[i - 1][j - 1] = 0
        planted = Block(rows)
        corner = (max(1, i - h + 1), max(1, j - w + 1))
        assert cs.first_forbidden_window(planted) == corner
        assert not is_generated(build(cs), planted)
        assert cs.identifier(planted.subblock(*corner, h, w)) is None


def test_window_kernel_wide_symbols():
    """300 symbols, so a cell no longer fits a byte: 1x2 windows whose codes
    take fields of 4 bytes, with one 1x1 and one 1x2 pattern."""
    cs = ConstraintSystem(Alphabet("".join(map(chr, range(0x100, 0x100 + 300)))), 1, 2, [Block(((280,),)), Block(((299, 7),))])
    assert cs.size == 299**2 - 1
    assert cs.first_forbidden_window(Block(((0, 299, 8, 299, 280),) * 2)) == (1, 4)
    assert cs.first_forbidden_window(Block(((0, 299, 8), (299, 7, 0)))) == (2, 1)
    assert cs.first_forbidden_window(Block(((298, 299, 0), (257, 256, 0)))) is None
    assert cs.identifier(Block(((0, 299),))) == 299 and cs.identifier(Block(((299, 7),))) is None


@scan_settings
@given(cs=window_systems())
def test_format_system_round_trips(cs):
    again = parse_system(format_system(cs))
    assert again.alphabet == cs.alphabet and (again.h, again.w) == (cs.h, cs.w)
    assert again.forbidden == cs.forbidden and again.allowed == cs.allowed


@scan_settings
@given(cs=window_systems())
def test_allowed_in_canonical_order(cs):
    q, h, w = cs.alphabet.size, cs.h, cs.w
    assert list(cs.allowed) == [b for b in all_blocks(q, h, w) if b not in cs.forbidden]


@scan_settings
@given(cs=window_systems(), data=st.data())
def test_completions_are_blue_and_red_successors(cs, data):
    """completions(b, c) against the blue successors of b that are red
    successors of c, on the graph and on both one-colour views, with () for
    identifiers outside 1..size.  Every pair is tried when at most 120
    identifiers are; otherwise drawn ones, each b also with the red
    predecessors of its first blue successors, so that some pairs close."""
    ids = range(-1, cs.size + 2)
    if len(ids) > 120:
        ids = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=40, unique=True))
    for g in (build(cs), row_presentation(cs), column_presentation(cs)):
        red_in: dict[int, list[int]] = {}
        for c, ds in g.red.items():
            for d in ds:
                red_in.setdefault(d, []).append(c)
        for b in ids:
            blue = set(g.blue_out(b))
            for c in {*ids, *(c for d in g.blue_out(b)[:2] for c in red_in.get(d, ()))}:
                assert g.completions(b, c) == tuple(sorted(blue & set(g.red_out(c))))


@scan_settings
@given(cs=window_systems(), data=st.data())
def test_edge_queries_match_edge_pairs(cs, data):
    """has_blue and has_red against the edge pairs, on the graph and on both
    one-colour views, for identifiers -1..size+1: every pair when at most 120
    identifiers are, otherwise every pair from up to 10 drawn ones."""
    ids = range(-1, cs.size + 2)
    us = ids if len(ids) <= 120 else data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=10, unique=True))
    for g in (build(cs), row_presentation(cs), column_presentation(cs)):
        blue_pairs = {(u, v) for u, vs in g.blue.items() for v in vs}
        red_pairs = {(u, v) for u, vs in g.red.items() for v in vs}
        for u, v in product(us, ids):
            assert g.has_blue(u, v) == ((u, v) in blue_pairs)
            assert g.has_red(u, v) == ((u, v) in red_pairs)


def test_edge_queries_build_no_edge_pairs(hard_square):
    g = build(hard_square)
    quad = next(iter(g.quadruple_table))
    assert quad in g.quadruple_table and (0, *quad[1:]) not in g.quadruple_table
    b, c = g.blue[1][0], g.red[1][0]
    assert g.blue_label(1, b) == hard_square.block(b).row_block(2)
    assert g.red_label(1, c) == hard_square.block(c).col_block(2)
    assert "blue_pairs" not in g.__dict__ and "red_pairs" not in g.__dict__
    assert not hasattr(Presentation, "blue_pairs") and not hasattr(Presentation, "red_pairs")


@st.composite
def shape_and_patterns(draw):
    """A window shape, up to three patterns no larger than the window, the
    empty pattern included, up to eight full-size windows, and the nonempty
    patterns and the windows as 'pattern' and 'forbid' stanzas in random order."""
    q, h, w = draw(st.sampled_from(WINDOW_SHAPES))
    patterns = [random_block(draw, q, h, w) for _ in range(draw(st.integers(0, 3)))]
    windows = [random_block(draw, q, h, w, h, w) for _ in range(draw(st.integers(0, 8)))]
    stanzas = [("pattern", p) for p in patterns if not p.is_empty()] + [("forbid", f) for f in windows]
    return q, h, w, patterns, windows, draw(st.permutations(stanzas))


@scan_settings
@given(case=shape_and_patterns())
def test_embed_forbidden_matches_naive(case):
    q, h, w, patterns, windows, stanzas = case
    alphabet = Alphabet("abcd"[:q])

    def naive(patterns):
        return frozenset(b for b in all_blocks(q, h, w) if any(naive_contains(b, p) for p in patterns))

    assert embed_forbidden(alphabet, h, w, patterns) == naive(patterns)
    assert ConstraintSystem(alphabet, h, w, patterns).forbidden == naive(patterns)
    assert ConstraintSystem(alphabet, h, w, windows).forbidden == frozenset(windows)
    text = f"alphabet {alphabet.symbols}\nsize {h} {w}\n" + "".join(
        "\n".join([kind, *alphabet.format_block(b), ""]) for kind, b in stanzas
    )
    assert parse_system(text).forbidden == naive([b for _, b in stanzas])


@settings(deadline=None, max_examples=25)
@given(q=st.integers(1, 3), data=st.data())
def test_window_size_leaves_counts_unchanged(q, data):
    # patterns up to 2x2 written with 2x2, 2x3 and 3x3 windows: every pattern
    # placement, at every corner of every window, forbids the same blocks
    patterns = [random_block(data.draw, q, 2, 2, 1, 1) for _ in range(data.draw(st.integers(1, 3)))]
    alphabet = Alphabet("abc"[:q])
    graphs = [build(ConstraintSystem(alphabet, h, w, patterns)) for h, w in ((2, 2), (2, 3), (3, 3))]
    for m, n in product(range(3, 5), repeat=2):
        want = count_members(graphs[0].system, m, n)
        assert [count_by_profile(g, m, n) for g in graphs] == [want] * 3


def wrapped_strips(cs, m, n):
    """The vertically wrapped m-row strips of widths w..n, by a transfer over
    symbol columns: the state is the last w - 1 columns, and a column fits when
    every h x w window ending at it is allowed, its rows taken cyclically."""
    q, h, w = cs.alphabet.size, cs.h, cs.w
    forbidden = {f.rows for f in cs.forbidden}

    def fits(cols):
        return all(tuple(tuple(c[(i + k) % m] for c in cols) for k in range(h)) not in forbidden for i in range(m))

    windows = [cols for cols in product(product(range(q), repeat=m), repeat=w) if fits(cols)]
    after = defaultdict(list)  # state: the states a fitting column leads to
    for cols in windows:
        after[cols[:-1]].append(cols[1:])
    ahead = Counter(cols[1:] for cols in windows)
    series = [len(windows)]
    for _ in range(w, n):
        step = Counter()
        for state, c in ahead.items():
            for nxt in after[state]:
                step[nxt] += c
        ahead = step
        series.append(sum(ahead.values()))
    return series


# Found by a search over window_system seeds.  Counting rows 3 symbols wide
# (2 identifiers a line), the lines end on 20, 19, 18, 17, 17, ... states, and
# wrapped columns of height 3 on 10, 7, 4, 4, ...: lines that do not end on the
# states they started from are compiled again, twice or more, before the
# frontier settles.
SHRINKING = window_system(3, 2, 2, 0.7, 450738858)


@walker_settings
@given(cs=window_systems(), n_extra=st.integers(0, 2), m_extra=st.integers(0, 2))
@example(cs=SHRINKING, n_extra=1, m_extra=1)
@example(cs=ConstraintSystem(Alphabet("a"), 2, 3, ()), n_extra=2, m_extra=2)
@example(cs=ConstraintSystem(Alphabet("a"), 1, 1, [Block(((0,),))]), n_extra=2, m_extra=2)
def test_counts_over_many_lines_match_oracle(cs, n_extra, m_extra):
    """Sweeps of one to seven lines: the rows of every height up to h + 6, and
    wrapped columns out to width w + 6, against the oracle and a transfer."""
    q, h, w = cs.alphabet.size, cs.h, cs.w
    n, m = w + n_extra, h + m_extra
    assume(q ** (n * h) <= 4096 and q ** (m * w) <= 4096)
    g = build(cs)
    assert [count_by_profile(g, k, n) for k in range(h, h + 7)] == [count_members(cs, k, n) for k in range(h, h + 7)]
    assert count_periodic(g, m, w + 6) == wrapped_strips(cs, m, w + 6)


# -- blocks stitched from edge labels against window-by-window references -----


def reference_stitch(grid):
    """The block of a complete grid, written one window cell at a time; an
    AssertionError names the first cell an earlier window gave another symbol."""
    h, w, cols = grid.system.h, grid.system.w, grid.grid_cols
    out = [[None] * grid.n for _ in range(grid.m)]
    for p, k in enumerate(grid.ids):
        win = grid.system.block(k)
        for i, j in product(range(h), range(w)):
            r, c = p // cols + i, p % cols + j
            if out[r][c] is not None and out[r][c] != win.rows[i][j]:
                raise AssertionError(f"overlap disagreement at {(r + 1, c + 1)}: {out[r][c]} vs {win.rows[i][j]}")
            out[r][c] = win.rows[i][j]
    return Block(out)


def stitch_outcome(stitch, grid):
    try:
        return stitch(grid)
    except AssertionError as e:
        return str(e)


def reference_strips(g, heads, windows, blue):
    """The strips of every path of ``windows`` vertices from a head, in depth-first
    ascending order, each stitched window by window: a blue path adds each later
    window's last row, a red path each later window's last column."""
    paths = [(k,) for k in heads]
    for _ in range(windows - 1):
        paths = [(*p, v) for p in paths for v in (g.blue_out if blue else g.red_out)(p[-1])]
    for path in paths:
        wins = [g.system.block(k).rows for k in path]
        if blue:
            yield Block(wins[0] + tuple(win[-1] for win in wins[1:]))
        else:
            yield Block(tuple(r[0] + tuple(row[-1] for row in r[1:]) for r in zip(*wins)))


# one-row and one-column identifier grids included: 1..3 grid rows and columns
grid_sides = st.integers(1, 3)


@scan_settings
@given(cs=window_systems(), rows=grid_sides, cols=grid_sides, seed=st.integers(0, 2**32 - 1))
@example(cs=ROW_WINDOW, rows=1, cols=3, seed=0)
@example(cs=COL_WINDOW, rows=3, cols=1, seed=0)
@example(cs=FREE, rows=3, cols=1, seed=0)
@example(cs=FREE, rows=1, cols=1, seed=0)
def test_to_block_matches_reference_stitch(cs, rows, cols, seed):
    """On filled grids, and on grids of random identifiers, where the windows may
    disagree: the same block, or the same AssertionError text."""
    assume(cs.size > 0)
    g = build(cs)
    grid = IdentifierGrid(cs, cs.h + rows - 1, cs.w + cols - 1)
    try:
        fill_grid(g, grid, GenerationPolicy(seed=seed))
    except NotRealizable:
        pass
    else:
        assert grid.to_block() == reference_stitch(grid)
    rng = random.Random(seed)
    grid.ids = [rng.randint(1, cs.size) for _ in grid.ids]
    assert stitch_outcome(IdentifierGrid.to_block, grid) == stitch_outcome(reference_stitch, grid)


@scan_settings
@given(cs=window_systems(), data=st.data())
def test_to_block_names_the_first_disagreement(cs, data):
    """A member with one window swapped for another allowed window: a grid that
    disagrees in one place, above, below, left or right of the swapped window."""
    assume(cs.size > 1)
    rows, cols = data.draw(grid_sides), data.draw(grid_sides)
    grid = IdentifierGrid(cs, cs.h + rows - 1, cs.w + cols - 1)
    try:
        fill_grid(build(cs), grid, GenerationPolicy(seed=data.draw(st.integers(0, 99))))
    except NotRealizable:
        assume(False)
    p = data.draw(st.integers(0, len(grid.ids) - 1))
    grid.ids[p] = data.draw(st.integers(1, cs.size).filter(lambda k: k != grid.ids[p]))
    assert stitch_outcome(IdentifierGrid.to_block, grid) == stitch_outcome(reference_stitch, grid)


@walker_settings
@given(cs=window_systems(), m_extra=st.integers(0, 2), n_extra=st.integers(0, 2))
@example(cs=FREE, m_extra=0, n_extra=0)
@example(cs=ROW_WINDOW, m_extra=0, n_extra=2)
@example(cs=COL_WINDOW, m_extra=2, n_extra=0)
def test_strips_match_reference_stitch(cs, m_extra, n_extra):
    """Strips of exactly one window included (an extra of 0)."""
    assume(cs.size <= 64)
    g = build(cs)
    m, n = cs.h + m_extra, cs.w + n_extra
    assert list(enumerate_row_strips(g, m)) == list(reference_strips(g, g.vertices, m_extra + 1, blue=True))
    assert list(enumerate_col_strips(g, n)) == list(reference_strips(g, g.vertices, n_extra + 1, blue=False))
    for k in g.vertices:
        assert list(class_view(g, k).strips(n)) == list(reference_strips(g, [k], n_extra + 1, blue=False))


@scan_settings
@given(cs=window_systems())
def test_edges_and_labels_match_block_overlaps(cs):
    """The edges against overlaps cut from Blocks, and the labels against the
    target window's last row and column; a missing edge has no label."""
    assume(cs.size <= 64)
    g, h, w = build(cs), cs.h, cs.w
    cases = (
        ("blue", Block.suffix_row, Block.prefix_row, lambda b: b.row_block(h)),
        ("red", Block.suffix_col, Block.prefix_col, lambda b: b.col_block(w)),
    )
    for colour, drop_first, drop_last, last in cases:
        trailing, leading = ([None, *map(drop, cs.allowed)] for drop in (drop_first, drop_last))
        edges = {u: tuple(v for v in g.vertices if trailing[u] == leading[v]) for u in g.vertices}
        assert getattr(g, colour) == {u: vs for u, vs in edges.items() if vs}
        label = getattr(g, f"{colour}_label")
        for u, vs in edges.items():
            assert [label(u, v) for v in vs] == [last(cs.block(v)) for v in vs]
            missing = next((v for v in g.vertices if v not in vs), None)
            if missing is not None:
                with pytest.raises(ValueError, match=f"no {colour} edge {u} -> {missing}"):
                    label(u, missing)
