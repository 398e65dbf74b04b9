"""Graph-derived strips, enumerations, counts and generated blocks against the
oracle, and the window-code scans against naive per-window scans, on random
small systems including the degenerate ones."""

import random
from itertools import product

import pytest
from conftest import brute_periodic
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ftcs2d import (
    Alphabet,
    Block,
    ConstraintSystem,
    GenerationPolicy,
    NotRealizable,
    Presentation,
    all_blocks,
    build,
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
from ftcs2d.generation import SCHEDULES, enumerate_col_strips, enumerate_row_strips

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
def test_enumerate_blocks_matches_oracle(cs, m_extra, n_extra):
    m, n = sizes(cs, m_extra, n_extra)
    g = build(cs)
    members = list(enumerate_members(cs, m, n))
    for schedule in SCHEDULES:
        assert canonical(enumerate_blocks(g, m, n, schedule)) == members


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


@st.composite
def window_systems(draw):
    """Random systems with 2-4 symbols and windows up to 3x3; a density of 0
    gives the free system, 1 the empty one."""
    q, h, w = draw(st.sampled_from(WINDOW_SHAPES))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    forbidden = [b for b in all_blocks(q, h, w) if rng.random() < density]
    return ConstraintSystem(Alphabet("abcd"[:q]), h, w, forbidden)


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
