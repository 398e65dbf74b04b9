import pytest
from hypothesis import given, strategies as st

from ftcs2d import (
    EMPTY,
    Alphabet,
    Block,
    BudgetExceeded,
    ConstraintSystem,
    all_blocks,
    embed_forbidden,
    is_generated,
    oracle,
)
from ftcs2d.blocks import WINDOW_BUDGET


def blk(*rows: str) -> Block:
    return Block(tuple(tuple(int(c) for c in r) for r in rows))


@st.composite
def blocks(draw, q=2, min_dim=1, max_dim=4):
    m = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(min_dim, max_dim))
    return Block(
        tuple(
            tuple(draw(st.integers(0, q - 1)) for _ in range(n)) for _ in range(m)
        )
    )


class TestBlockBasics:
    def test_dimensions(self):
        b = blk("010", "100")
        assert (b.height, b.width) == (2, 3)
        assert b[(1, 2)] == 1
        assert b[(2, 1)] == 1

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            Block(((0, 1), (0,)))

    def test_empty_normalization(self):
        assert Block(()) is not None
        assert Block(((), (), ())) == EMPTY
        assert EMPTY.height == 0 and EMPTY.width == 0

    def test_cell_out_of_range(self):
        with pytest.raises(IndexError):
            blk("01")[(2, 1)]


class TestPrefixSuffix:
    def test_prefix_col_example(self):
        b = blk("010", "100", "001")
        assert b.prefix_col() == blk("01", "10", "00")

    def test_suffix_row_degenerate(self):
        assert blk("0101").suffix_row() == EMPTY

    def test_errors_on_empty(self):
        for op in ("prefix_col", "suffix_col", "prefix_row", "suffix_row"):
            with pytest.raises(ValueError):
                getattr(EMPTY, op)()

    @given(blocks(min_dim=2))
    def test_commutation(self, b):
        assert b.prefix_row().suffix_col() == b.suffix_col().prefix_row()
        assert b.suffix_row().prefix_col() == b.prefix_col().suffix_row()


class TestConcat:
    def test_concat_col_example(self):
        a = blk("00", "00")
        c = blk("1", "1")
        assert a.concat_col(c) == blk("001", "001")

    def test_concat_with_empty_is_identity(self):
        b = blk("01", "10")
        assert b.concat_col(EMPTY) == b
        assert EMPTY.concat_row(b) == b

    def test_mismatch(self):
        with pytest.raises(ValueError):
            blk("01").concat_col(blk("0", "1"))
        with pytest.raises(ValueError):
            blk("01").concat_row(blk("0"))

    @given(blocks())
    def test_col_decomposition(self, b):
        assert b.prefix_col().concat_col(b.col_block(b.width)) == b

    @given(blocks())
    def test_row_decomposition(self, b):
        assert b.prefix_row().concat_row(b.row_block(b.height)) == b


class TestSubblock:
    def test_identity(self):
        b = blk("010", "100", "001")
        assert b.subblock(1, 1, 3, 3) == b

    def test_suffix_definition(self):
        b = blk("010", "100", "001")
        assert b.subblock(2, 2, 2, 2) == b.suffix_row().suffix_col()

    def test_hard_square_window(self):
        b = blk("010", "100", "001")
        assert b.subblock(2, 2, 2, 2) == blk("00", "01")

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            blk("01", "10").subblock(2, 1, 2, 2)

    @given(blocks())
    def test_transpose_involution(self, b):
        assert b.transpose().transpose() == b


class TestAlphabet:
    def test_roundtrip(self):
        a = Alphabet("abc")
        b = a.parse_block(["ab", "ca"])
        assert a.format_block(b) == ["ab", "ca"]

    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet("")
        with pytest.raises(ValueError):
            Alphabet("aa")
        with pytest.raises(ValueError):
            Alphabet("a b")
        with pytest.raises(ValueError):
            Alphabet("01").index("2")

    def test_index_takes_one_symbol(self):
        assert Alphabet("01").index("1") == 1
        for token in ("01", "", "10"):
            with pytest.raises(ValueError, match="not in alphabet"):
                Alphabet("01").index(token)


class TestConstraintSystem:
    def test_hard_square_allowed_count(self, hard_square):
        assert hard_square.size == 7
        assert len(hard_square.forbidden) == 9

    def test_partition(self, hard_square):
        union = set(hard_square.allowed) | hard_square.forbidden
        assert union == set(all_blocks(2, 2, 2))
        assert not set(hard_square.allowed) & hard_square.forbidden

    def test_free_system(self, free_system):
        assert free_system.size == 16

    def test_everything_forbidden(self):
        alph = Alphabet("01")
        cs = ConstraintSystem(alph, 2, 2, all_blocks(2, 2, 2))
        assert cs.size == 0

    def test_wrong_sized_forbidden(self):
        with pytest.raises(ValueError, match="block 1x3 exceeds window 2x2"):
            ConstraintSystem(Alphabet("01"), 2, 2, [blk("111")])
        with pytest.raises(ValueError, match="outside 0..1"):
            ConstraintSystem(Alphabet("01"), 2, 2, [blk("2")])

    def test_smaller_blocks_forbid_containing_windows(self, hard_square):
        cs = ConstraintSystem(Alphabet("01"), 2, 2, [blk("11"), blk("1", "1")])
        assert cs.forbidden_codes == hard_square.forbidden_codes
        assert "forbidden" not in cs.__dict__  # decoded on first use
        assert cs.forbidden == hard_square.forbidden and "forbidden" in cs.__dict__

    def test_identifier_bijection(self, hard_square):
        ks = [hard_square.identifier(b) for b in hard_square.allowed]
        assert ks == list(range(1, 8))
        # canonical order is row-major lexicographic on cells
        cells = [b.cells for b in hard_square.allowed]
        assert cells == sorted(cells)
        with pytest.raises(ValueError):
            hard_square.block(8)

    def test_is_member_examples(self, hard_square):
        assert hard_square.is_member(blk("000", "010", "000"))
        assert not hard_square.is_member(blk("11", "11"))
        count = sum(hard_square.is_member(b) for b in all_blocks(2, 3, 3))
        assert count == 63

    def test_small_blocks_are_members(self, hard_square):
        b = blk("11")
        assert hard_square.is_member(b)
        assert hard_square.below_modified_size(b)

    def test_alphabet_mismatch(self, hard_square):
        with pytest.raises(ValueError):
            hard_square.is_member(Block(((2,),)))

    def test_negative_symbol_rejected(self, hard_square, hs_graph):
        # a negative digit would alias another window's code; it used to pass as a member
        b = Block(((-1, 1), (1, 0)))
        with pytest.raises(ValueError, match="outside 0..1"):
            hard_square.is_member(b)
        with pytest.raises(ValueError):
            hard_square.first_forbidden_window(Block(((0, 0, 0), (0, 0, -2))))
        with pytest.raises(ValueError):
            ConstraintSystem(Alphabet("01"), 2, 2, [b])
        assert hard_square.identifier(b) is None
        assert not is_generated(hs_graph, b)

    def test_unknown_symbol_identifier(self, hard_square, hs_graph):
        b = Block(((2, 0), (0, 0)))
        assert hard_square.identifier(b) is None
        assert not is_generated(hs_graph, b)

    def test_window_budget(self):
        assert oracle.BudgetExceeded is BudgetExceeded
        # 4^16 windows: refused before any of them is enumerated
        with pytest.raises(BudgetExceeded, match=f"window space of 4\\^16 4x4 windows exceeds budget {WINDOW_BUDGET}"):
            ConstraintSystem(Alphabet("0123"), 4, 4, ())
        with pytest.raises(BudgetExceeded):
            embed_forbidden(Alphabet("0123"), 4, 4, [blk("11")])
        with pytest.raises(BudgetExceeded):  # too many to be worth computing
            ConstraintSystem(Alphabet("01"), 1000, 1000, ())
        # 2^20 windows are within the budget; a full-size pattern fixes every cell
        zeros = Block(((0,) * 5,) * 4)
        assert embed_forbidden(Alphabet("01"), 4, 5, [zeros]) == {zeros}
        assert ConstraintSystem(Alphabet("0"), 30, 30, ()).size == 1

    def test_first_forbidden_window(self, hard_square):
        assert hard_square.first_forbidden_window(blk("111", "000", "000")) == (1, 1)
        assert hard_square.first_forbidden_window(blk("010", "001", "011")) == (2, 2)

    @given(blocks(max_dim=4), st.sets(st.integers(0, 15), max_size=6))
    def test_window_scan_equivalence(self, b, forbidden_codes):
        # naive double loop against the library's scan, for a random forbidden set
        alph = Alphabet("01")
        forb = [
            Block(((code >> 3 & 1, code >> 2 & 1), (code >> 1 & 1, code & 1)))
            for code in forbidden_codes
        ]
        cs = ConstraintSystem(alph, 2, 2, forb)
        naive = True
        for i in range(b.height - 1):
            for j in range(b.width - 1):
                win = Block(
                    (
                        (b.rows[i][j], b.rows[i][j + 1]),
                        (b.rows[i + 1][j], b.rows[i + 1][j + 1]),
                    )
                )
                if win in cs.forbidden:
                    naive = False
        assert cs.is_member(b) == naive


class TestEmbedForbidden:
    def test_hard_square_patterns(self, hard_square):
        # fixture already built via embed_forbidden; check the counts directly
        alph = Alphabet("01")
        forb = embed_forbidden(alph, 2, 2, [blk("11"), Block(((1,), (1,)))])
        assert len(forb) == 9
        assert forb == hard_square.forbidden

    def test_empty_patterns(self):
        assert embed_forbidden(Alphabet("01"), 2, 2, []) == frozenset()

    def test_full_size_pattern(self):
        b = blk("10", "01")
        assert embed_forbidden(Alphabet("01"), 2, 2, [b]) == frozenset({b})

    def test_too_large(self):
        with pytest.raises(ValueError):
            embed_forbidden(Alphabet("01"), 2, 2, [blk("111")])
