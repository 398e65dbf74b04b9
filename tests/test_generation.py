import hashlib
import random
import tracemalloc
from itertools import combinations, product

import pytest

from ftcs2d import (
    Alphabet,
    Block,
    ConstraintSystem,
    DeadEnd,
    GenerationPolicy,
    GenerationStats,
    IdentifierGrid,
    NotRealizable,
    all_blocks,
    build,
    candidates,
    column_presentation,
    enumerate_blocks,
    enumerate_members,
    generate_block,
    generate_col_strip,
    generate_row_strip,
    is_generated,
    row_presentation,
)
from ftcs2d.blocks import decode_windows
from ftcs2d.generation import (
    COL_MAJOR,
    INTERLEAVED,
    ROW_MAJOR,
    SCHEDULES,
    case_of,
    enumerate_col_strips,
    enumerate_row_strips,
    fill_grid,
    schedule_cells,
)


def all_zero_id(cs):
    return cs.identifier(Block(((0,) * cs.w,) * cs.h))


def backtracking_system():
    """A binary 2x2 system of 8 windows on which the seeded random fill backtracks."""
    return ConstraintSystem(Alphabet("01"), 2, 2, decode_windows([2, 4, 5, 8, 11, 12, 13, 15], 2, 2, 2))


def dead_end_system():
    """A binary 2x2 system of 8 windows whose blue and red graphs have sinks:
    some heads start no strip of 9 windows, and seeded walks from others back up."""
    return ConstraintSystem(Alphabet("01"), 2, 2, decode_windows([1, 4, 8, 9, 12, 13, 14, 15], 2, 2, 2))


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# generate_block(hs_graph, 6, 9, GenerationPolicy(schedule, "random", seed)), as
# text; the seeded stream is part of the contract, so these never change
HS_SEEDED = {
    (ROW_MAJOR, 0): ["010010000", "100001010", "010010100", "001000000", "010000101", "100100000"],
    (ROW_MAJOR, 1): ["010000100", "000010001", "000101000", "010010100", "100101000", "010000101"],
    (COL_MAJOR, 0): ["010001001", "100010010", "001000000", "000100010", "101000100", "010001001"],
    (COL_MAJOR, 1): ["010101000", "001010010", "000001000", "000000101", "010101010", "000010000"],
    (INTERLEAVED, 0): ["010000000", "100010100", "000000010", "101010001", "000100100", "010000010"],
    (INTERLEAVED, 1): ["010000101", "000101010", "001000100", "100100001", "010010100", "000000001"],
}


class TestSchedules:
    def test_row_major(self):
        assert schedule_cells(ROW_MAJOR, 3, 3, 2, 2) == [(2, 2), (2, 3), (3, 2), (3, 3)]

    def test_col_major(self):
        assert schedule_cells(COL_MAJOR, 3, 3, 2, 2) == [(2, 2), (3, 2), (2, 3), (3, 3)]

    def test_interleaved_3x5(self):
        # column pairs, row-major within each pair
        assert schedule_cells(INTERLEAVED, 3, 5, 2, 2) == [
            (2, 2), (2, 3), (3, 2), (3, 3),
            (2, 4), (2, 5), (3, 4), (3, 5),
        ]

    def test_unknown(self):
        with pytest.raises(ValueError):
            schedule_cells("diagonal", 3, 3, 2, 2)

    def test_predecessors_before_cell(self):
        for sched in (ROW_MAJOR, COL_MAJOR, INTERLEAVED):
            order = schedule_cells(sched, 4, 5, 2, 2)
            seen = set()
            for i, j in order:
                if case_of(i, j, 2, 2) == 2:
                    assert {(i - 1, j - 1), (i - 1, j), (i, j - 1)} <= seen
                seen.add((i, j))

    def test_case_split_3x5(self):
        order = schedule_cells(INTERLEAVED, 3, 5, 2, 2)
        cases = [case_of(i, j, 2, 2) for i, j in order]
        for (i, j), c in zip(order, cases):
            assert (c == 1) == (i == 2 or j == 2)
        # steps 4, 7 and 8 are the interior (Case 2) steps
        assert [k + 1 for k, c in enumerate(cases) if c == 2] == [4, 7, 8]


class TestCandidates:
    def test_first_cell_unrestricted(self, hard_square, hs_graph):
        grid = IdentifierGrid(hard_square, 3, 3)
        assert candidates(hs_graph, grid, 2, 2) == tuple(range(1, 8))

    def test_first_row_follows_red(self, hard_square, hs_graph):
        grid = IdentifierGrid(hard_square, 3, 3)
        k = all_zero_id(hard_square)
        grid.set(2, 2, k)
        assert candidates(hs_graph, grid, 2, 3) == hs_graph.red_out(k)
        assert len(candidates(hs_graph, grid, 2, 3)) == 3

    def test_first_col_follows_blue(self, hard_square, hs_graph):
        grid = IdentifierGrid(hard_square, 3, 3)
        k = all_zero_id(hard_square)
        grid.set(2, 2, k)
        assert candidates(hs_graph, grid, 3, 2) == hs_graph.blue_out(k)

    def test_interior_uses_quadruples(self, hard_square, hs_graph):
        grid = IdentifierGrid(hard_square, 3, 3)
        k = all_zero_id(hard_square)
        grid.set(2, 2, k)
        grid.set(2, 3, hs_graph.red_out(k)[0])
        grid.set(3, 2, hs_graph.blue_out(k)[0])
        cand = candidates(hs_graph, grid, 3, 3)
        table = hs_graph.quadruple_table
        assert cand == table.completions(k, grid.get(2, 3), grid.get(3, 2))
        assert not grid.filled(3, 3)  # candidates places nothing
        grid.set(3, 3, cand[-1])
        assert candidates(hs_graph, grid, 3, 3) == cand and grid.get(3, 3) == cand[-1]

    def test_unfilled_predecessor(self, hard_square, hs_graph):
        grid = IdentifierGrid(hard_square, 3, 3)
        with pytest.raises(ValueError):
            candidates(hs_graph, grid, 2, 3)
        with pytest.raises(ValueError):
            candidates(hs_graph, grid, 3, 3)


class TestStripGeneration:
    def test_height_h_returns_head(self, hard_square):
        gr = row_presentation(hard_square)
        for k in range(1, 8):
            assert generate_row_strip(gr, k, 2) == hard_square.block(k)

    def test_all_zero_head_strips(self, hard_square):
        gr = row_presentation(hard_square)
        k = all_zero_id(hard_square)
        strips = set(enumerate_row_strips(gr, 3, head=k))
        assert len(strips) == 3
        third_rows = {s.row_block(3) for s in strips}
        assert third_rows == {Block(((0, 0),)), Block(((0, 1),)), Block(((1, 0),))}

    def test_col_mirror(self, hard_square):
        gc = column_presentation(hard_square)
        k = all_zero_id(hard_square)
        assert generate_col_strip(gc, k, 2) == hard_square.block(k)
        assert len(set(enumerate_col_strips(gc, 3, head=k))) == 3

    def test_strips_are_members(self, hard_square):
        gr = row_presentation(hard_square)
        rng = random.Random(7)
        for k in range(1, 8):
            s = generate_row_strip(gr, k, 6, rng)
            assert (s.height, s.width) == (6, 2)
            assert hard_square.is_member(s)

    def test_dead_end(self):
        # allowed set {00/01, 01/00}: blue cycle exists but no red edge at all
        alph = Alphabet("01")
        keep = {Block(((0, 0), (0, 1))), Block(((0, 1), (0, 0)))}
        cs = ConstraintSystem(alph, 2, 2, set(all_blocks(2, 2, 2)) - keep)
        gc = column_presentation(cs)
        with pytest.raises(DeadEnd):
            generate_col_strip(gc, 1, 3)
        gr = row_presentation(cs)
        assert generate_row_strip(gr, 1, 4).height == 4  # blue cycle still works

    def test_long_strip(self, hard_square):
        gc = column_presentation(hard_square)
        s = generate_col_strip(gc, all_zero_id(hard_square), 3000, random.Random(1))
        assert (s.height, s.width) == (2, 3000)
        assert hard_square.is_member(s)


class TestGenerateBlock:
    def test_soundness_random_seeds(self, hard_square, hs_graph):
        for seed in range(10):
            b = generate_block(hs_graph, 4, 6, GenerationPolicy(seed=seed))
            assert (b.height, b.width) == (4, 6)
            assert hard_square.is_member(b)

    def test_single_cell_grid(self, hard_square, hs_graph):
        seen = set()
        for seed in range(100):
            b = generate_block(hs_graph, 2, 2, GenerationPolicy(seed=seed))
            seen.add(b)
            assert b in set(hard_square.allowed)
        assert len(seen) == 7  # uniform chooser reaches all of A_F

    def test_unrealizable(self):
        alph = Alphabet("01")
        cs = ConstraintSystem(alph, 2, 2, all_blocks(2, 2, 2))
        g = build(cs)
        with pytest.raises(NotRealizable):
            generate_block(g, 3, 3)

    def test_unknown_chooser(self, hard_square, hs_graph):
        """A misspelt chooser is refused before any cell is placed, not read as "ordered"."""
        grid = IdentifierGrid(hard_square, 4, 4)
        stats = GenerationStats()
        with pytest.raises(ValueError, match=r"unknown chooser 'randm'.*'random', 'ordered'"):
            fill_grid(hs_graph, grid, GenerationPolicy(chooser="randm"), stats)
        assert not any(grid.ids) and stats == GenerationStats()
        empty = build(ConstraintSystem(Alphabet("01"), 2, 2, all_blocks(2, 2, 2)))
        with pytest.raises(ValueError, match="unknown chooser"):  # not NotRealizable: checked first
            generate_block(empty, 3, 3, GenerationPolicy(chooser="Random"))

    def test_seed_determinism(self, hs_graph):
        p1 = GenerationPolicy(seed=123)
        p2 = GenerationPolicy(seed=123)
        assert generate_block(hs_graph, 5, 5, p1) == generate_block(hs_graph, 5, 5, p2)
        assert generate_block(hs_graph, 5, 5, GenerationPolicy(seed=124)) != generate_block(
            hs_graph, 5, 5, GenerationPolicy(seed=123)
        )

    def test_no_backtracking_on_hard_square(self, hs_graph):
        stats = GenerationStats()
        generate_block(hs_graph, 5, 8, GenerationPolicy(seed=3), stats)
        assert stats.backtracks == 0

    def test_backtracking_recovers(self):
        # find a small system where the lowest-identifier head dead-ends on a
        # width-wise strip but another head succeeds
        alph = Alphabet("01")
        found = None
        blocks16 = list(all_blocks(2, 2, 2))
        for keep in combinations(blocks16, 3):
            cs = ConstraintSystem(alph, 2, 2, set(blocks16) - set(keep))
            g = build(cs)
            if g.red_out(1):
                continue  # head 1 must dead-end immediately
            if any(len(g.red_out(u)) and len(g.red_out(v)) for u in g.vertices for v in g.red_out(u)):
                found = (cs, g)
                break
        assert found is not None
        cs, g = found
        stats = GenerationStats()
        b = generate_block(g, 2, 4, GenerationPolicy(chooser="ordered"), stats)
        assert cs.is_member(b)
        assert stats.backtracks >= 1
        with pytest.raises(DeadEnd):
            generate_block(g, 2, 4, GenerationPolicy(chooser="ordered", backtracking=False))

    def test_large_block(self, hard_square, hs_graph):
        b = generate_block(hs_graph, 200, 200)
        assert (b.height, b.width) == (200, 200)
        assert hard_square.is_member(b)

    def test_grow_mid_process(self, hard_square, hs_graph):
        for m, n in [(3, 6), (5, 6)]:  # more columns; more rows and columns
            grid = IdentifierGrid(hard_square, 3, 3)
            fill_grid(hs_graph, grid, GenerationPolicy(seed=5))
            partial = grid.to_block()
            grid.resize(m, n)
            fill_grid(hs_graph, grid, GenerationPolicy(seed=6))
            full = grid.to_block()
            assert (full.height, full.width) == (m, n)
            assert full.subblock(1, 1, 3, 3) == partial
            assert hard_square.is_member(full)

    def test_unrealizable_keeps_prefilled_cells(self, hard_square, hs_graph):
        # cell (2, 2) of the target is 1 in the first window and cell (3, 2) is 1
        # in the window at (4, 2): no hard-square block joins them
        first = hard_square.identifier(Block(((0, 0), (0, 1))))
        low = hard_square.identifier(Block(((0, 1), (0, 0))))
        grid = IdentifierGrid(hard_square, 4, 3)
        grid.set(2, 2, first)
        grid.set(4, 2, low)
        stats = GenerationStats()
        with pytest.raises(NotRealizable):
            fill_grid(hs_graph, grid, GenerationPolicy(chooser="ordered"), stats)
        assert stats.steps > 0  # cells were placed, then cleared
        assert (grid.get(2, 2), grid.get(4, 2)) == (first, low)
        assert [c for c in schedule_cells(ROW_MAJOR, 4, 3, 2, 2) if grid.filled(*c)] == [(2, 2), (4, 2)]

    def test_resize_shrink_rejected(self, hard_square):
        grid = IdentifierGrid(hard_square, 3, 3)
        with pytest.raises(ValueError):
            grid.resize(2, 3)


class TestSeededStream:
    def test_hard_square_6x9(self, hard_square, hs_graph):
        for sched in SCHEDULES:
            for seed in (0, 1):
                got = generate_block(hs_graph, 6, 9, GenerationPolicy(sched, "random", seed=seed))
                assert hard_square.alphabet.format_block(got) == HS_SEEDED[sched, seed]
                ordered = generate_block(hs_graph, 6, 9, GenerationPolicy(sched, "ordered", seed=seed))
                assert ordered == Block(((0,) * 9,) * 6)

    def test_backtracking_system(self):
        cs = backtracking_system()
        g = build(cs)
        expected = {
            ("random", 0): (70, 19, ["010001", "110010", "101101", "011010"]),
            ("random", 1): (16, 1, ["010010", "101101", "011010", "110110"]),
            ("ordered", 0): (15, 0, ["000000"] * 4),
        }
        for (chooser, seed), (steps, backtracks, rows) in expected.items():
            stats = GenerationStats()
            b = generate_block(g, 4, 6, GenerationPolicy(chooser=chooser, seed=seed), stats)
            assert (stats.steps, stats.backtracks, cs.alphabet.format_block(b)) == (steps, backtracks, rows)
        expected = {
            ROW_MAJOR: (3202, 777, "003bb393331d8325"),
            COL_MAJOR: (1832, 366, "e7e9ccdd0f4d63d6"),
            INTERLEAVED: (2054, 444, "c07e80a255703664"),
        }
        for schedule, (steps, backtracks, blocks) in expected.items():
            stats = GenerationStats()
            out = ["/".join(cs.alphabet.format_block(b)) for b in enumerate_blocks(g, 4, 6, schedule, stats)]
            assert (len(out), stats.steps, stats.backtracks, digest(out)) == (272, steps, backtracks, blocks)

    def test_strip_streams(self, hard_square):
        """Seeded strips of 9 windows from every head, seeds 0-2, each with the
        rng's next draw, which pins how much its walk drew."""
        expected = {
            ("hard square", generate_row_strip): "c3fd08b0342b43ea",
            ("hard square", generate_col_strip): "3740a06e8da940c0",
            ("backtracking", generate_row_strip): "7e9a203ec0e69911",
            ("backtracking", generate_col_strip): "da30d77c898b569a",
            ("dead end", generate_row_strip): "5347fe78e111e97b",
            ("dead end", generate_col_strip): "f49bd9d32b7c3230",
        }
        systems = {"hard square": hard_square, "backtracking": backtracking_system(), "dead end": dead_end_system()}
        for (name, strip), want in expected.items():
            cs = systems[name]
            g = build(cs)
            lines = []
            for head, seed in product(g.vertices, range(3)):
                rng = random.Random(seed)
                try:
                    text = "/".join(cs.alphabet.format_block(strip(g, head, 9, rng)))
                except DeadEnd:
                    text = "dead end"
                lines.append(f"{head} {seed} {text} {rng.getrandbits(32)}")
            assert any("dead end" in line for line in lines) == (name == "dead end")
            assert digest(lines) == want


class TestExhaustiveEnumeration:
    def test_3x5_count(self, hard_square, hs_graph):
        out = list(enumerate_blocks(hs_graph, 3, 5, INTERLEAVED))
        assert len(out) == len(set(out)) == 827
        assert all(hard_square.is_member(b) for b in out)

    def test_schedule_independence(self, hs_graph):
        sets = [
            sorted(set(enumerate_blocks(hs_graph, 3, 4, sched)), key=lambda b: b.cells)
            for sched in (ROW_MAJOR, COL_MAJOR, INTERLEAVED)
        ]
        assert sets[0] == sets[1] == sets[2]

    def test_matches_oracle(self, hard_square, hs_graph):
        assert set(enumerate_blocks(hs_graph, 3, 4)) == set(
            enumerate_members(hard_square, 3, 4)
        )

    def test_no_dead_ends_for_hard_square(self, hs_graph):
        stats = GenerationStats()
        list(enumerate_blocks(hs_graph, 3, 5, INTERLEAVED, stats))
        assert stats.backtracks == 0


class TestIsGenerated:
    def test_forbidden_window(self, hs_graph):
        assert not is_generated(hs_graph, Block(((1, 1), (0, 0))))

    def test_vertex_block(self, hard_square, hs_graph):
        for k in range(1, 8):
            assert is_generated(hs_graph, hard_square.block(k))

    def test_size_too_small(self, hs_graph):
        with pytest.raises(ValueError):
            is_generated(hs_graph, Block(((0,),)))

    def test_equivalence_3x3(self, hard_square, hs_graph):
        for b in all_blocks(2, 3, 3):
            assert is_generated(hs_graph, b) == hard_square.is_member(b)


class TestLargeWindowSpace:
    def test_generate_free_three_symbol_3x3(self):
        # 19,683 vertices with 531,441 edges of each colour; completions are
        # computed per pair on demand, never for all 3^14 corners at once
        cs = ConstraintSystem(Alphabet("abc"), 3, 3, ())
        g = build(cs)
        assert (cs.size, g.n_blue, g.n_red) == (3**9, 3**12, 3**12)
        b = generate_block(g, 20, 20)
        assert (b.height, b.width) == (20, 20) and cs.is_member(b)
        # the first walk check retains no table of the 531,441 edges of each colour
        tracemalloc.start()
        try:
            assert is_generated(g, b)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20 and g.overlap_colours == (True, True)


class TestReconstruction:
    def test_overlap_consistency(self, hard_square, hs_graph):
        grid = IdentifierGrid(hard_square, 4, 4)
        fill_grid(hs_graph, grid, GenerationPolicy(seed=11))
        b = grid.to_block()  # raises on any overlap disagreement
        assert hard_square.is_member(b)

    def test_overlap_disagreement(self, hard_square):
        # the windows share the target's column 2: 0 over 0 in the first, 1 over 0 in the second
        grid = IdentifierGrid(hard_square, 2, 3)
        grid.set(2, 2, all_zero_id(hard_square))
        grid.set(2, 3, hard_square.identifier(Block(((1, 0), (0, 0)))))
        with pytest.raises(AssertionError, match="overlap disagreement at \\(1, 2\\)"):
            grid.to_block()

    def test_incomplete_grid_rejected(self, hard_square):
        grid = IdentifierGrid(hard_square, 3, 3)
        grid.set(2, 2, 1)
        with pytest.raises(ValueError):
            grid.to_block()
