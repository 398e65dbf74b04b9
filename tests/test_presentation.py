import pytest

from ftcs2d import (
    Alphabet,
    Block,
    ConstraintSystem,
    Presentation,
    all_blocks,
    build,
    class_connections,
    class_view,
    column_presentation,
    combined,
    enumerate_members,
    quadruples,
    row_presentation,
)
from ftcs2d.generation import enumerate_col_strips


def member_count(cs, m, n):
    return sum(1 for _ in enumerate_members(cs, m, n))


class TestRowPresentation:
    def test_hard_square_edges(self, hard_square):
        gr = row_presentation(hard_square)
        assert len(gr.vertices) == 7
        # blue edges biject with member 3x2 blocks (two overlapping windows)
        assert gr.n_blue == member_count(hard_square, 3, 2) == 17
        assert gr.n_red == 0

    def test_edge_condition(self, hard_square):
        gr = row_presentation(hard_square)
        for u in gr.vertices:
            for v in gr.blue_out(u):
                bu, bv = hard_square.block(u), hard_square.block(v)
                assert bu.suffix_row() == bv.prefix_row()
                assert gr.blue_label(u, v) == bv.row_block(2)

    def test_free_system(self, free_graph):
        assert free_graph.n_blue == 64
        assert all(len(free_graph.blue_out(u)) == 4 for u in free_graph.vertices)

    def test_everything_forbidden(self):
        cs = ConstraintSystem(Alphabet("01"), 2, 2, all_blocks(2, 2, 2))
        gr = row_presentation(cs)
        assert len(gr.vertices) == 0 and gr.n_blue == 0


class TestColumnPresentation:
    def test_hard_square_edges(self, hard_square):
        gc = column_presentation(hard_square)
        assert gc.n_red == member_count(hard_square, 2, 3) == 17
        assert gc.n_blue == 0

    def test_transpose_symmetry(self, hard_square):
        # hard-square F is transpose-closed, so red and blue counts agree
        assert {f.transpose() for f in hard_square.forbidden} == hard_square.forbidden
        assert row_presentation(hard_square).n_blue == column_presentation(hard_square).n_red

    def test_labels(self, hard_square):
        gc = column_presentation(hard_square)
        for u in gc.vertices:
            for v in gc.red_out(u):
                assert gc.red_label(u, v) == hard_square.block(v).col_block(2)


class TestCombined:
    def test_hard_square(self, hs_graph):
        assert hs_graph.n_blue == 17 and hs_graph.n_red == 17

    def test_edge_sets_carried_over(self, hard_square):
        gr = row_presentation(hard_square)
        gc = column_presentation(hard_square)
        g = combined(gr, gc)
        assert g.blue == gr.blue and g.red == gc.red

    def test_constructor_takes_no_edges(self, hs_graph):
        # the edges are the overlap relation; a view only says which colours it has
        with pytest.raises(TypeError):
            Presentation(hs_graph.system, dict(hs_graph.blue), dict(hs_graph.red))
        view = Presentation(hs_graph.system, with_red=False)
        assert view.blue == hs_graph.blue and view.red == {}

    def test_system_mismatch(self, hard_square, free_system):
        gr = row_presentation(hard_square)
        gc = column_presentation(free_system)
        with pytest.raises(ValueError):
            combined(gr, gc)


class TestQuadruples:
    def test_hard_square_count(self, hs_graph):
        assert len(hs_graph.quadruple_table) == 63

    def test_free_count(self, free_graph):
        assert len(quadruples(free_graph)) == 512

    def test_bijection_with_members(self, hard_square, hs_graph):
        # each quad reconstructs to a unique 3x3 member and vice versa
        from ftcs2d import IdentifierGrid

        rebuilt = set()
        for a, b, c, d in hs_graph.quadruple_table:
            grid = IdentifierGrid(hard_square, 3, 3)
            grid.set(2, 2, a)
            grid.set(2, 3, b)
            grid.set(3, 2, c)
            grid.set(3, 3, d)
            rebuilt.add(grid.to_block())
        assert rebuilt == set(enumerate_members(hard_square, 3, 3))
        assert len(rebuilt) == len(hs_graph.quadruple_table)

    def test_equal_left_column_quads(self, hard_square, hs_graph):
        # quads with a == c correspond to members whose two left windows coincide
        with_repeat = sum(1 for a, b, c, d in hs_graph.quadruple_table if a == c)
        oracle = sum(
            1
            for m in enumerate_members(hard_square, 3, 3)
            if m.subblock(1, 1, 2, 2) == m.subblock(2, 1, 2, 2)
        )
        assert with_repeat == oracle > 0

    def test_completions_sorted(self, hs_graph):
        t = hs_graph.quadruple_table
        for a in hs_graph.vertices:
            for b in hs_graph.red_out(a):
                for c in hs_graph.blue_out(a):
                    ds = t.completions(a, b, c)
                    assert list(ds) == sorted(ds) and ds == hs_graph.completions(b, c)
                    for d in ds:
                        assert (a, b, c, d) in t


class TestRelabellingInvariance:
    def test_reversed_alphabet_same_counts(self, hard_square, hs_graph):
        # reversing the symbol order permutes the identifier bijection; all
        # identifier-invariant quantities must be unchanged
        alph = Alphabet("10")
        forbidden = {
            alph.parse_block(Alphabet("01").format_block(f)) for f in hard_square.forbidden
        }
        cs = ConstraintSystem(alph, 2, 2, forbidden)
        g = build(cs)
        assert cs.size == hard_square.size
        assert g.n_blue == hs_graph.n_blue and g.n_red == hs_graph.n_red
        assert len(g.quadruple_table) == len(hs_graph.quadruple_table)


class TestDegenerateHeightOne:
    def test_complete_blue_graph(self):
        alph = Alphabet("01")
        cs = ConstraintSystem(alph, 1, 2, [Block(((1, 1),))])
        gr = row_presentation(cs)
        assert cs.size == 3
        assert gr.n_blue == 9  # complete with self-loops
        assert all(gr.has_blue(u, u) for u in gr.vertices)


class TestClassViews:
    def test_one_view_per_identifier(self, hard_square):
        gc = column_presentation(hard_square)
        views = [class_view(gc, k) for k in range(1, hard_square.size + 1)]
        assert len(views) == 7

    def test_zero_length_path(self, hard_square):
        gc = column_presentation(hard_square)
        for k in range(1, 8):
            assert list(class_view(gc, k).strips(2)) == [hard_square.block(k)]

    def test_union_covers_all_strips(self, hard_square):
        gc = column_presentation(hard_square)
        got = set()
        for k in range(1, 8):
            got |= set(class_view(gc, k).strips(4))
        assert got == set(enumerate_members(hard_square, 2, 4))

    def test_identifier_range(self, hard_square):
        gc = column_presentation(hard_square)
        with pytest.raises(ValueError):
            class_view(gc, 0)
        with pytest.raises(ValueError):
            class_view(gc, 8)


class TestClassConnections:
    def test_hard_square_count(self, hs_graph):
        conns = class_connections(hs_graph)
        assert len(conns) == hs_graph.n_blue == 17

    def test_self_pair_condition(self, hard_square, hs_graph):
        for k, k2 in class_connections(hs_graph):
            if k == k2:
                b = hard_square.block(k)
                assert b.suffix_row() == b.prefix_row()

    def test_free_system(self, free_graph):
        conns = class_connections(free_graph)
        assert len(conns) == 64

    def test_agrees_with_strip_reachability(self, hard_square, hs_graph):
        # a class connection means the lower class continues generation one row down
        gc = column_presentation(hard_square)
        for k, k2 in class_connections(hs_graph):
            strips = set(enumerate_col_strips(gc, 3, head=k))
            lower = set(enumerate_col_strips(gc, 3, head=k2))
            joined = {
                s.concat_row(t.row_block(2))
                for s in strips
                for t in lower
                if s.suffix_row() == t.prefix_row()
            }
            assert joined  # at least one 3-row strip crosses the connection
