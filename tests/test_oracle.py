import pytest

from ftcs2d import (
    Alphabet,
    Block,
    BudgetExceeded,
    ConstraintSystem,
    count_members,
    enumerate_members,
)


class TestEnumerate:
    def test_hard_square_counts(self, hard_square):
        assert len(list(enumerate_members(hard_square, 2, 2))) == 7
        assert len(list(enumerate_members(hard_square, 3, 3))) == 63

    def test_sorted_and_unique(self, hard_square):
        out = list(enumerate_members(hard_square, 3, 4))
        cells = [b.cells for b in out]
        assert cells == sorted(set(cells))

    def test_free_system(self, free_system):
        assert len(list(enumerate_members(free_system, 2, 3))) == 64

    def test_members_only(self, hard_square):
        assert all(hard_square.is_member(b) for b in enumerate_members(hard_square, 3, 3))

    def test_budget(self, hard_square):
        with pytest.raises(BudgetExceeded):
            list(enumerate_members(hard_square, 5, 5, budget=100))

    def test_size_too_small(self, hard_square):
        with pytest.raises(ValueError):
            list(enumerate_members(hard_square, 1, 3))

    def test_no_recursion_limit(self):
        # one symbol: the budget admits any size, and 1600 cells outrun the recursion limit
        cs = ConstraintSystem(Alphabet("0"), 1, 1, ())
        assert list(enumerate_members(cs, 40, 40)) == [Block(((0,) * 40,) * 40)]


class TestCount:
    def test_hard_square_values(self, hard_square):
        assert count_members(hard_square, 2, 2) == 7
        assert count_members(hard_square, 3, 3) == 63
        assert count_members(hard_square, 3, 5) == 827

    def test_single_cell(self):
        alph = Alphabet("01")
        cs = ConstraintSystem(alph, 1, 1, ())
        assert count_members(cs, 1, 1) == 2

    def test_matches_enumeration(self, hard_square, three_symbol):
        for cs, m, n in [(hard_square, 4, 4), (three_symbol, 3, 3)]:
            assert count_members(cs, m, n) == sum(1 for _ in enumerate_members(cs, m, n))

    def test_transpose_symmetry(self, hard_square):
        # hard-square F is transpose-closed
        for m, n in [(2, 5), (3, 6), (4, 5)]:
            assert count_members(hard_square, m, n) == count_members(hard_square, n, m)

    def test_free_system(self, free_system):
        assert count_members(free_system, 3, 4) == 2**12

    def test_budget(self, hard_square):
        with pytest.raises(BudgetExceeded):
            count_members(hard_square, 3, 30, budget=1000)

    def test_height_one_windows(self):
        # h = 1: forbidden windows live inside single rows
        alph = Alphabet("01")
        cs = ConstraintSystem(alph, 1, 2, [Block(((1, 1),))])
        # rows of length 3 avoiding "11": 5 of 8; rows independent
        assert count_members(cs, 2, 3) == 25

    def test_strip_recurrence(self, hard_square):
        # width-2 strip counts follow a_k = 2 a_{k-1} + a_{k-2}
        counts = [count_members(hard_square, m, 2) for m in range(2, 9)]
        assert counts[:5] == [7, 17, 41, 99, 239]
        for k in range(2, len(counts)):
            assert counts[k] == 2 * counts[k - 1] + counts[k - 2]
