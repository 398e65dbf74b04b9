import math

import pytest

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

    def test_requires_combined(self, hard_square):
        from ftcs2d import row_presentation

        with pytest.raises(ValueError):
            count_by_profile(row_presentation(hard_square), 3, 3)

    def test_state_budget(self, hs_graph):
        with pytest.raises(BudgetExceeded):
            count_by_profile(hs_graph, 3, 40, budget=100)

    def test_guarded_submultiplicativity(self, hs_graph):
        # N(m, n1 + n2) <= N(m, n1) * N(m, n2) for n1, n2 >= w
        for m in (2, 3, 4):
            for n1 in (2, 3):
                for n2 in (2, 3, 4):
                    n = count_by_profile(hs_graph, m, n1 + n2)
                    assert n <= count_by_profile(hs_graph, m, n1) * count_by_profile(hs_graph, m, n2)


def brute_periodic(cs, m, n):
    """Vertically wrapped strips by direct check on extended blocks."""
    total = 0
    for b in all_blocks(cs.alphabet.size, m, n):
        ext = b.concat_row(b.subblock(1, 1, cs.h - 1, n)) if cs.h > 1 else b
        if cs.is_member(ext):
            total += 1
    return total


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
        with pytest.raises(BudgetExceeded):
            count_periodic(hs_graph, 8, 3, budget=100)

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

    def test_profile_budget_honoured(self, hs_graph):
        with pytest.raises(BudgetExceeded):
            capacity_estimate(hs_graph, 4, 4, profile_budget=1)

    def test_strip_heights_reported(self, hs_graph):
        est = capacity_estimate(hs_graph, 4, 4)
        assert est.strip_heights == (2, 3, 4)
