import re

import numpy as np
import pytest

from bknet import PLMap, make_checkerboard, marked_grid, search_min_stretch, toy_constants
from bknet.plmap import _jacobians


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
