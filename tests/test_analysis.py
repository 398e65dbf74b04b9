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
        # 3x3 is two identifier rows of two cells.  For hard square a passed cell
        # is lumped to its blue class, its window's bottom row (00, 01, 10), and
        # the cell just placed to its pair class, its window without the top-left
        # corner.  So after any cell of a row below the wildcard, a state is a
        # staircase of symbols: the new bottom row up to the cell's right column,
        # that column's top symbol, and the old bottom row from there on.  The
        # cells form a path, and the states are the sets of no two adjacent 1s on
        # it, all of them reachable: 3 cells -> 5 states, 4 -> 8, 5 -> 13.
        # first row, cell 1: a path of 3 cells (block row 2, columns 1-2, and
        #   block row 1, column 2): 5 states
        # first row, cell 2: both cells lumped, block row 2 (000, 001, 010, 100,
        #   101): 5 states holding 17 strips
        # second row, cell 1: block row 3, columns 1-2, and block row 2, columns
        #   2-3, joined at column 2: a path of 4 cells, 8 states
        # second row, cell 2: block row 3 again, 5 states (63 members)
        # peak: 8 live states of 2 cells, a charge of 16
        assert count_by_profile(hs_graph, 3, 3, budget=16) == 63
        with pytest.raises(BudgetExceeded, match="^row operator of width 2: 8 live states of 2 cells exceed budget 15$"):
            count_by_profile(hs_graph, 3, 3, budget=15)

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

    def test_long_strip_through_replayed_lines(self, hs_graph):
        # 1,999 lines after the first: a transfer over 6-bit rows with no two
        # adjacent 1s (v'[s] sums v[r] over rows r with r & s == 0)
        rows = [r for r in range(64) if not r & r >> 1]
        v = dict.fromkeys(rows, 1)
        for _ in range(1999):
            v = {s: sum(v[r] for r in rows if not r & s) for s in rows}
        assert count_by_profile(hs_graph, 2000, 6) == sum(v.values())

    def test_budget_pinned_across_replayed_lines(self, hs_graph):
        # 30x8 is 29 rows of 7 cells; from the second row on, cells 1 to 6 each
        # hold a staircase of 9 symbols (see test_budget_counts_operator_built):
        # the new bottom row up to the cell's right column, that column's top
        # symbol, and the old bottom row from there on.  A path of 9 cells has
        # F(11) = 89 sets with no two adjacent 1s: the peak is 89 live states, a
        # charge of 623 (the last cell lumps the row to its 8 bottom symbols, 55
        # states)
        want = 40540461886644028820255571312158602181109751
        assert count_by_profile(hs_graph, 30, 8, budget=623) == want
        with pytest.raises(BudgetExceeded, match="^row operator of width 7: 89 live states of 7 cells exceed budget 622$"):
            count_by_profile(hs_graph, 30, 8, budget=622)

    def test_three_rows_of_23_fit_the_default_budget(self, hs_graph):
        # a transfer over the 5 columns of height 3 with no two adjacent 1s,
        # neighbouring columns sharing no 1
        columns = [c for c in range(8) if not c & c >> 1]
        v = dict.fromkeys(columns, 1)
        for _ in range(22):
            v = {c: sum(v[d] for d in columns if not c & d) for c in columns}
        assert count_by_profile(hs_graph, 3, 23) == sum(v.values()) == 9962735709201
        with pytest.raises(BudgetExceeded, match="^row operator of width 23: "):
            count_by_profile(hs_graph, 3, 24)

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

    def test_budget_pinned_at_the_held_cell(self, hs_graph):
        # 3x3 wrapped is two columns of three cells.  After the second cell of
        # the first column a state holds the first cell's top row (its top class),
        # the first two cells' right column (red class and pair class) and the
        # second cell's bottom row: symbols (1,1), (1,2), (2,2), (3,2), (3,1), a
        # path in that order.  By the held top row, with no two adjacent 1s:
        # 00 leaves a free path of 3 (5 ways), 01 forces (2,2) = 0 and leaves a
        # path of 2 (3 ways), 10 leaves a free path of 3 (5 ways): 13 states,
        # the peak, a charge of 39
        assert count_periodic(hs_graph, 3, 3, budget=39) == [13, 43]
        with pytest.raises(
            BudgetExceeded, match="^wrapped column operator of height 3: 13 live states of 3 cells exceed budget 38$"
        ):
            count_periodic(hs_graph, 3, 3, budget=38)

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

    def test_long_wrapped_strip_through_replayed_lines(self, hs_graph):
        # a transfer over wrapped 5-bit columns with no two cyclically adjacent
        # 1s, neighbouring columns sharing no 1: widths 2 to 2,000
        columns = [c for c in range(32) if not c & (c << 1 | c >> 4) & 31]
        ahead = dict.fromkeys(columns, 1)  # ahead[c]: wrapped strips of the current width starting at c
        want = []
        for _ in range(2, 2001):
            ahead = {c: sum(ahead[d] for d in columns if not c & d) for c in columns}
            want.append(sum(ahead.values()))
        assert count_periodic(hs_graph, 5, 2000) == want

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

    def test_no_member_at_the_largest_size(self):
        # only 01/10 is allowed, so no block of two windows is a member: every count
        # ratio is 0/0 or 0/n, and each must give the empty estimate, never nan
        only = Block(((0, 1), (1, 0)))
        cs = ConstraintSystem(Alphabet("01"), 2, 2, set(all_blocks(2, 2, 2)) - {only})
        for mm, nn in [(2, 3), (3, 3), (4, 5)]:
            est = capacity_estimate(build(cs), mm, nn)
            assert est.empty and est.lower == est.point == est.upper == -math.inf

    def test_no_wrapped_member(self):
        # vertical pairs 01 and 12 only: the column 012 is a member, but no column wraps
        allowed = {Block(((0,), (1,))), Block(((1,), (2,)))}
        cs = ConstraintSystem(Alphabet("012"), 2, 1, set(all_blocks(3, 2, 1)) - allowed)
        est = capacity_estimate(build(cs), 3, 4)
        assert not est.empty and (est.lower, est.point, est.upper) == (-math.inf, -1.0, 0.0)

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
