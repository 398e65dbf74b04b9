import math
import time
from itertools import product

import pytest
from conftest import brute_periodic

from ftcs2d import (
    Alphabet,
    Block,
    BudgetExceeded,
    ConstraintSystem,
    all_blocks,
    build,
    capacity_estimate,
    count_by_profile,
    count_members,
    count_periodic,
)

# N(16, 16) for hard square, from a transfer over 16-bit rows with no two
# adjacent 1s (v'[s] sums v[r] over rows r with r & s == 0)
HARD_SQUARE_16 = 18396766424410124752958806046933947217821482942


class TestProfileCounting:
    def test_matches_oracle_hard_square(self, hard_square, hs_graph):
        for m in range(2, 5):
            for n in range(2, 5):
                assert count_by_profile(hs_graph, m, n) == count_members(hard_square, m, n)

    def test_matches_oracle_three_symbol(self, three_symbol_graph):
        cs = three_symbol_graph.system
        for m in range(2, 4):
            for n in range(2, 4):
                assert count_by_profile(three_symbol_graph, m, n) == count_members(cs, m, n)

    def test_window_size_count(self, hard_square, hs_graph):
        assert count_by_profile(hs_graph, 2, 2) == hard_square.size

    def test_known_values(self, hs_graph):
        assert count_by_profile(hs_graph, 3, 3) == 63
        assert count_by_profile(hs_graph, 3, 5) == 827

    def test_state_budget(self, hs_graph):
        with pytest.raises(BudgetExceeded, match="^row operator of width 39: .* exceed budget 100$"):
            count_by_profile(hs_graph, 3, 40, budget=100)

    def test_budget_counts_operator_built(self, hs_graph):
        # 3x3 is two identifier rows of two cells; a passed cell is lumped to its
        # blue class, which for hard square is its window's bottom row (00, 01, 10)
        # first row, cell 1: 7 states, one per identifier
        # first row, cell 2: both cells lumped, one state per bottom row of a 2x3
        #   strip (000, 001, 010, 100, 101): 5 states holding 17 strips
        # second row, cell 1: the new cell (block rows 2-3, columns 1-2) and the
        #   class of the cell above-right (block row 2, columns 2-3): block row 2
        #   is one of those 5 rows, and block row 3 at columns 1-2 (00, 01 or 10)
        #   has no 1 under a 1 of it: 3 + 3 + 2 + 2 + 2 = 12 states
        # second row, cell 2: one state per bottom row again, 5 states (63 members)
        # peak: 12 live states of 2 cells, a charge of 24
        assert count_by_profile(hs_graph, 3, 3, budget=24) == 63
        with pytest.raises(BudgetExceeded, match="^row operator of width 2: 12 live states of 2 cells exceed budget 23$"):
            count_by_profile(hs_graph, 3, 3, budget=23)

    def test_large_squares_default_budget(self, hs_graph):
        # OEIS A006506; 9x9 and 10x10 exceeded the old size ** width state budget
        assert count_by_profile(hs_graph, 9, 9) == 770548397261707
        assert count_by_profile(hs_graph, 10, 10) == 2030049051145980050
        assert count_by_profile(hs_graph, 11, 11) == 12083401651433651945979
        assert count_by_profile(hs_graph, 12, 12) == 162481813349792588536582997

    def test_16x16_default_budget(self, hs_graph):
        start = time.perf_counter()
        assert count_by_profile(hs_graph, 16, 16) == HARD_SQUARE_16
        assert time.perf_counter() - start < 5

    def test_three_symbol_3x6(self, three_symbol, three_symbol_graph):
        # whole-row successors took about 30 s here at a budget of 2^40
        assert count_by_profile(three_symbol_graph, 3, 6) == count_members(three_symbol, 3, 6) == 21045446

    def test_guarded_submultiplicativity(self, hs_graph):
        # N(m, n1 + n2) <= N(m, n1) * N(m, n2) for n1, n2 >= w
        for m in (2, 3, 4):
            for n1 in (2, 3):
                for n2 in (2, 3, 4):
                    n = count_by_profile(hs_graph, m, n1 + n2)
                    assert n <= count_by_profile(hs_graph, m, n1) * count_by_profile(hs_graph, m, n2)


class TestPeriodicCounting:
    def test_matches_brute_force(self, hard_square, hs_graph):
        for m, n in [(2, 2), (2, 4), (3, 3), (3, 4), (4, 3)]:
            assert count_periodic(hs_graph, m, n)[-1] == brute_periodic(hard_square, m, n)

    def test_free_system(self, free_graph):
        assert count_periodic(free_graph, 3, 3)[-1] == 2**9

    def test_width_series(self, hs_graph, hard_square):
        series = count_periodic(hs_graph, 3, 5)
        assert series == [brute_periodic(hard_square, 3, n) for n in range(2, 6)]

    def test_budget(self, hs_graph):
        with pytest.raises(BudgetExceeded, match="^wrapped column operator of height 8: "):
            count_periodic(hs_graph, 8, 3, budget=100)

    def test_exact_past_float64(self, three_symbol, three_symbol_graph):
        # wrapped transfer over symbol columns of height 3: neighbouring columns
        # c, d fit when every 2x2 window on them is allowed, rows i - 1 and i
        # taken cyclically (i = 0 is the window across the seam)
        m, n = 3, 20
        forbidden = {f.rows for f in three_symbol.forbidden}
        columns = list(product(range(3), repeat=m))
        fits = {
            c: [d for d in columns if all(((c[i - 1], d[i - 1]), (c[i], d[i])) not in forbidden for i in range(m))]
            for c in columns
        }
        ahead = {c: 1 for c in columns}  # ahead[c]: wrapped strips of the current width starting at c
        want = []
        for _ in range(2, n + 1):
            ahead = {c: sum(ahead[d] for d in fits[c]) for c in columns}
            want.append(sum(ahead.values()))
        got = count_periodic(three_symbol_graph, m, n)
        assert got == want
        assert all(type(x) is int for x in got) and got[-1] > 2**53

    def test_height_one(self):
        alph = Alphabet("01")
        cs = ConstraintSystem(alph, 1, 2, [Block(((1, 1),))])
        g = build(cs)
        # wrap of a single row requires a blue self-loop; h=1 blue is complete
        assert count_periodic(g, 1, 3)[-1] == count_members(cs, 1, 3) == 5


class TestCapacity:
    def test_free_system_exact_one(self, free_graph):
        for mm, nn in [(2, 3), (3, 3), (4, 3)]:
            est = capacity_estimate(free_graph, mm, nn)
            assert est.lower == est.point == est.upper == 1.0

    def test_hard_square_ordering_small(self, hs_graph):
        est = capacity_estimate(hs_graph, 4, 4)
        assert est.lower <= est.point <= est.upper
        assert 0.5 < est.point < 0.7

    def test_empty_system(self):
        alph = Alphabet("01")
        cs = ConstraintSystem(alph, 2, 2, all_blocks(2, 2, 2))
        est = capacity_estimate(build(cs), 3, 3)
        assert est.empty
        assert math.isinf(est.point) and est.point < 0

    def test_size_requirements(self, hs_graph):
        with pytest.raises(ValueError):
            capacity_estimate(hs_graph, 1, 4)
        with pytest.raises(ValueError):
            capacity_estimate(hs_graph, 4, 2)
        empty = build(ConstraintSystem(Alphabet("01"), 2, 2, all_blocks(2, 2, 2)))
        with pytest.raises(ValueError, match="need max_m >= 2 and max_n >= 3, got 1x1"):
            capacity_estimate(empty, 1, 1)

    def test_profile_budget_honoured(self, hs_graph):
        with pytest.raises(BudgetExceeded):
            capacity_estimate(hs_graph, 4, 4, profile_budget=1)

    def test_hard_square_10x10_brackets_known_capacity(self, hs_graph):
        # Baxter, J. Phys. A 32 (1999); 10x10 exceeded the old row-state budget
        est = capacity_estimate(hs_graph, 10, 10)
        assert est.lower <= 0.5878911617753406 <= est.upper

    def test_strip_heights_reported(self, hs_graph):
        est = capacity_estimate(hs_graph, 4, 4)
        assert est.strip_heights == (2, 3, 4)
