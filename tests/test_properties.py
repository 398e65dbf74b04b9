"""Graph-derived strips, enumerations, counts and generated blocks against the
oracle, on random small systems including the degenerate ones."""

import pytest
from conftest import brute_periodic
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ftcs2d import (
    Alphabet,
    ConstraintSystem,
    GenerationPolicy,
    NotRealizable,
    all_blocks,
    build,
    class_view,
    column_presentation,
    count_by_profile,
    count_members,
    count_periodic,
    enumerate_blocks,
    enumerate_members,
    generate_block,
)
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
