import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import PLMap, make_checkerboard, marked_grid, search_min_stretch, toy_constants
from bknet.plmap import _jacobians
from bknet.search import _vertex_table


FIELD = make_checkerboard(4, 1.0)
CONSTS = toy_constants(2.0, 1.0, N=4, M=2)


class TestSearch:
    def test_budget_zero_returns_identity(self):
        res = search_min_stretch(FIELD, CONSTS, 0, seed=1)
        from bknet import identity_map
        ref = identity_map(FIELD.domain, 8, 2)
        assert np.array_equal(res.plmap.vertices, ref.vertices)
        assert res.stretch.A == 1.0

    def test_objective_trace_non_increasing(self):
        res = search_min_stretch(FIELD, CONSTS, 1500, seed=3)
        trace = np.array(res.trace)
        assert (np.diff(trace) <= 0).all()
        assert res.objective == trace[-1]
        assert res.objective <= trace[0]

    def test_deterministic_given_seed(self):
        a = search_min_stretch(FIELD, CONSTS, 1500, seed=42)
        b = search_min_stretch(FIELD, CONSTS, 1500, seed=42)
        assert a.trace == b.trace
        assert np.array_equal(a.plmap.vertices, b.plmap.vertices)
        assert a.objective == b.objective

    def test_lipschitz_cap_respected(self):
        res = search_min_stretch(FIELD, CONSTS, 2000, seed=7)
        assert res.lip <= CONSTS.L + 1e-9

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            search_min_stretch(FIELD, CONSTS, -1, seed=0)

    @pytest.mark.parametrize("budget", [2.5, 10.0, True, False, "10", None, np.int64(10)])
    def test_budget_not_an_int_rejected(self, budget):
        with pytest.raises(ValueError, match=f"budget must be an int >= 0, not {re.escape(repr(budget))}"):
            search_min_stretch(FIELD, CONSTS, budget, seed=0)

    @pytest.mark.parametrize("seed", [1.5, 42.0, True, "42", None, np.int64(42), -1])
    def test_seed_not_an_int_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an int >= 0, not {re.escape(repr(seed))}"):
            search_min_stretch(FIELD, CONSTS, 10, seed=seed)

    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2 ** 64 - 1),
           st.lists(st.sampled_from([0, 1, 1023, 1024, 1025, 2048, 2049]),
                    min_size=2, max_size=2, unique=True).map(sorted))
    @settings(max_examples=25, deadline=None)
    def test_shorter_budget_is_a_prefix(self, N, M, seed, budgets):
        """The draws come in blocks of a fixed size, whatever the budget, so
        a budget that ends inside, at or past a block edge replays the
        first steps of any larger budget."""
        field = make_checkerboard(N, 1.0)
        consts = toy_constants(2.0, 1.0, N=N, M=M)
        short, long = (search_min_stretch(field, consts, b, seed) for b in budgets)
        assert long.trace[:len(short.trace)] == short.trace

    def test_budget_zero_returns_the_marked_points_on_every_desk_shape(self):
        off = []
        for N in range(1, 17):
            field = make_checkerboard(N, 1.0)
            for M in range(1, 9):
                res = search_min_stretch(field, toy_constants(2.0, 1.0, N=N, M=M), 0, seed=0)
                if not np.array_equal(res.plmap.vertices, np.array(marked_grid(N, M).points)):
                    off.append((N, M))
        assert off == []

    def test_field_off_the_thin_rectangle_rejected(self):
        with pytest.raises(ValueError, match=r"not \[0,1\] x \[0,1/N\] for N=4"):
            search_min_stretch(make_checkerboard(8, 1.0), CONSTS, 0, seed=0)

    def test_desk_scale_guard(self):
        big = toy_constants(2.0, 1.0, N=32, M=2)
        with pytest.raises(ValueError):
            search_min_stretch(make_checkerboard(32, 1.0), big, 10, seed=0)

    def test_start_above_the_cap_rejected(self):
        # the marked grid's computed largest singular value at N=5, M=7 is
        # a few 1e-9 above 1, so a cap between them refuses the start
        field, L = make_checkerboard(5, 1.0), 1.000000001
        start = PLMap(field.domain, 35, 7, np.array(marked_grid(5, 7).points))
        lip = float(_jacobians(start)[1].max())
        assert lip > L
        with pytest.raises(ValueError, match=re.escape(
                f"largest singular value {lip!r} exceeds the Lipschitz cap L={L!r}")):
            search_min_stretch(field, toy_constants(L, 1.0, N=5, M=7), 100, 0)


class TestVertexTable:
    @pytest.mark.parametrize("nx,ny", [(1, 1), (8, 2), (16, 2), (32, 4), (128, 8)])
    def test_built_once_per_shape_as_tuples(self, nx, ny):
        """One object per shape, tuples all the way down, and equal to a
        fresh build."""
        table = _vertex_table(nx, ny)
        assert _vertex_table(nx, ny) is table
        assert table == _vertex_table.__wrapped__(nx, ny)
        assert len(table) == (nx + 1) * (ny + 1)

        def tuples_only(x):
            return not isinstance(x, list) and (
                not isinstance(x, tuple) or all(tuples_only(e) for e in x))

        assert isinstance(table, tuple) and tuples_only(table)

    def test_shapes_do_not_share_a_table(self):
        assert _vertex_table(8, 2) is not _vertex_table(2, 8)
        assert _vertex_table(8, 2) != _vertex_table(2, 8)

    def test_cache_holds_every_desk_shape(self):
        # search_min_stretch's grids: (N M) x M for N <= 16 and M <= 8
        shapes = [(N * M, M) for N in range(1, 17) for M in range(1, 9)]
        tables = [_vertex_table(nx, ny) for nx, ny in shapes]
        assert all(_vertex_table(nx, ny) is t for (nx, ny), t in zip(shapes, tables))
