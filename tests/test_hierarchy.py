import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import (
    Rect,
    UNIT_SQUARE,
    assemble_limit_density,
    build_hierarchy,
    constant_field,
    embed_in_neighborhood,
    make_checkerboard,
    toy_constants,
)
from bknet.density import _grid_rows
from bknet.hierarchy import HierarchyDepthError, _kept_rows


TOY = toy_constants(2.0, 1.0, N=4, M=2)


class TestEmbed:
    def test_identity_rescaling_reproduces_checkerboard(self):
        N, c, M, L = 4, 1.0, 2, 2.0
        U = Rect(0.0, 0.0, 1.0, 1.0 / N)
        patch, pairs, eps = embed_in_neighborhood(
            ((0.0, 0.0), (1.0, 0.0)), U, N, c, M, L)
        assert patch == make_checkerboard(N, c)
        # all marked pairs of the unclipped patch survive
        assert len(pairs) == N * M * (M + 1)
        assert pairs[0] == ((0.0, 0.0), (1.0 / (N * M), 0.0))

    def test_half_scale_halves_pairs_and_quarters_eps(self):
        N, c, M, L = 4, 1.0, 2, 2.0
        U1 = Rect(0.0, 0.0, 1.0, 1.0 / N)
        p1, pairs1, eps1 = embed_in_neighborhood(
            ((0.0, 0.0), (1.0, 0.0)), U1, N, c, M, L)
        U2 = Rect(0.0, 0.0, 0.5, 0.5 / N)
        p2, pairs2, eps2 = embed_in_neighborhood(
            ((0.0, 0.0), (0.5, 0.0)), U2, N, c, M, L)
        assert eps2 == pytest.approx(eps1 / 4, rel=1e-12)
        for (a1, b1), (a2, b2) in zip(pairs1, pairs2):
            assert a2 == (a1[0] / 2, a1[1] / 2)
            assert b2 == (b1[0] / 2, b1[1] / 2)
        # areas scale as the square of the ratio
        assert p2.integrate(p2.domain) == pytest.approx(
            p1.integrate(p1.domain) / 4, rel=1e-12)

    def test_degenerate_neighborhood_rejected(self):
        with pytest.raises(ValueError):
            embed_in_neighborhood(((0.0, 0.5), (1.0, 0.5)),
                                  Rect(0.0, 0.0, 1.0, 0.5), 4, 1.0, 2, 2.0)

    def test_clipping_drops_upper_pair_rows(self):
        N, c, M, L = 4, 1.0, 2, 2.0
        thin = Rect(0.0, 0.0, 1.0, 1.0 / 100)   # thinner than 1/N
        patch, pairs, _ = embed_in_neighborhood(
            ((0.0, 0.0), (1.0, 0.0)), thin, N, c, M, L)
        assert patch.domain.height == 1.0 / 100
        # only the bottom row (s=0) fits
        assert len(pairs) == N * M
        assert all(a[1] == 0.0 for a, _ in pairs)

    def test_drawn_segments_are_accepted_and_the_last_strip_ends_at_bx(self):
        # ax + N * lam / N can round past bx; the patch's last strip then
        # left its domain, and a hierarchy level overlapped the next
        rng = random.Random(18)
        for _ in range(2000):
            N, M = rng.randint(1, 64), rng.randint(1, 12)
            ax, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            bx = ax + rng.uniform(1e-6, 4.0)
            U = Rect(ax, y, bx, y + (bx - ax) / N)
            patch, _, _ = embed_in_neighborhood(((ax, y), (bx, y)), U, N, 1.0, M, 2.0)
            assert len(patch.cells) == N
            assert patch.cells[-1][0].x1 == bx


class TestBuildHierarchy:
    def test_depth_zero(self):
        field, hier = build_hierarchy(2.0, 1.0, 0, TOY)
        assert field == constant_field(1.0)
        assert len(hier.levels) == 1
        assert hier.levels[0].segments == (((0.0, 0.0), (1.0, 0.0)),)
        assert hier.levels[0].epsilon == 1.0

    def test_depth_one_is_single_patch(self):
        field, hier = build_hierarchy(2.0, 1.0, 1, TOY)
        cb = make_checkerboard(TOY.N, 1.0)
        # inside the patch the field agrees with the checkerboard
        for x, y in [(0.1, 0.1), (0.3, 0.05), (0.6, 0.2), (0.9, 0.01)]:
            assert field.value_at(x, y) == cb.value_at(x, y)
        # elsewhere the field is 1
        assert field.value_at(0.5, 0.9) == 1.0
        assert len(hier.levels[1].neighborhoods) == 1

    def test_depth_two_segment_count_matches_enumeration(self):
        _, hier = build_hierarchy(2.0, 1.0, 2, TOY)
        lvl1 = hier.levels[1]
        lvl2 = hier.levels[2]
        # enumeration oracle: count pairs patch by patch
        per_patch = {}
        for seg in lvl1.segments:
            (ax, ay), (bx, _) = seg
            U = [u for u in lvl2.neighborhoods
                 if u.x0 == ax and u.y0 == ay and u.x1 == bx][0]
            lam = bx - ax
            NM = TOY.N * TOY.M
            rows = sum(1 for s in range(TOY.M + 1)
                       if lam * s / NM <= U.height)
            per_patch[seg] = rows * math.ceil(NM / 2)
        assert len(lvl2.segments) == sum(per_patch.values())

    def test_budget_invariant_per_level(self):
        _, hier = build_hierarchy(2.0, 1.0, 3, TOY)
        hier.validate()
        for i in range(1, len(hier.levels)):
            assert hier.neighborhood_area(i) < hier.levels[i - 1].epsilon / 2

    def test_values_stay_in_declared_range(self):
        field, _ = build_hierarchy(2.0, 0.5, 2, toy_constants(2.0, 0.5, 4, 2))
        import random
        random.seed(3)
        for _ in range(2000):
            v = field.value_at(random.random(), random.random())
            assert 1.0 <= v <= 1.5

    def test_scheduled_constants_are_refused_for_materialization(self):
        with pytest.raises(HierarchyDepthError):
            build_hierarchy(2.0, 0.1, 1)

    def test_scheduled_constants_build_depth_zero(self):
        # level 0 makes no cell, so the level cap refuses nothing
        field, hier = build_hierarchy(2.0, 0.1, 0)
        assert field == constant_field(1.0)
        assert hier.levels[0].segments == (((0.0, 0.0), (1.0, 0.0)),)

    @pytest.mark.parametrize("M", [3, 5, 6])
    @pytest.mark.parametrize("N", [3, 4, 5, 7])
    def test_no_cell_is_a_rounding_sliver(self, N, M):
        """Strip edges and the next level's segments lie on one grid line,
        so no neighborhood starts an ulp off a strip edge and leaves a cell
        an ulp wide."""
        field, _ = build_hierarchy(2.0, 1.0, 3, toy_constants(2.0, 1.0, N=N, M=M))
        for r, _ in field.cells:
            tol = 1e-12 * max(1.0, abs(r.x0), abs(r.y0), abs(r.x1), abs(r.y1))
            assert r.width >= tol and r.height >= tol, r

    @pytest.mark.parametrize("consts", [toy_constants(3.0, 0.25), toy_constants(2.0, 0.25),
                                        toy_constants(3.0, 1.0)])
    def test_constants_for_another_L_or_c_rejected(self, consts):
        with pytest.raises(ValueError, match=(
                rf"made for L={consts.L}, c={consts.c}, not for L=2\.0, c=1\.0")):
            build_hierarchy(2.0, 1.0, 2, consts)

    @pytest.mark.parametrize("N,M,message", [
        # level 1 keeps 101 rows of 200 edges; level 2 would keep 200 of
        # each of their one-row patches
        (4, 100, "level 2 would make 4,040,000 segments"),
        # level 1 keeps 2 rows of 501 edges, and level 2 gives each N cells
        (1001, 1, "level 2 would make 1,003,002 cells"),
    ])
    def test_levels_past_the_materialization_limit_refused(self, N, M, message):
        with pytest.raises(HierarchyDepthError, match=message + ": at most 1,000,000"):
            build_hierarchy(2.0, 1.0, 2, toy_constants(2.0, 1.0, N=N, M=M))
        build_hierarchy(2.0, 1.0, 1, toy_constants(2.0, 1.0, N=N, M=M))

    def test_a_refused_level_makes_no_rows(self):
        # level 1 would keep all 1,000,001 rows of 2,000,000 edges; the
        # rows alone took 30.5 MB before the refusal
        tracemalloc.start()
        try:
            with pytest.raises(HierarchyDepthError,
                               match="level 1 would make 2,000,002,000,000 segments"):
                build_hierarchy(2.0, 1.0, 1, toy_constants(2.0, 1.0, N=4, M=10 ** 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_kept_rows_count_the_rows_grid_rows_keeps(self, data):
        N, M = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 60))
        unit = st.floats(0.0, 1.0)
        n = data.draw(st.integers(1, 8))
        ax = np.array([data.draw(unit) for _ in range(n)])
        lam = np.array([data.draw(st.floats(1e-12, 1.0)) for _ in range(n)])
        y = np.array([data.draw(unit) for _ in range(n)])
        # the patch's natural height lam / N, clipped to a drawn fraction of it
        clip = np.array([data.draw(st.sampled_from([1.0, 1.0, 0.5, 1e-3]) | unit) for _ in range(n)])
        top = y + np.minimum(lam / N, lam / N * clip + 5e-324)
        patch, _ = _grid_rows(ax, ax + lam, y, top, N, M)
        assert _kept_rows((ax + lam) - ax, y, top, N, M) == len(patch)

    @pytest.mark.parametrize("L,c,N,M,depth,message", [
        # level 3 has segments at y = 0 and y = 1; the second one's
        # neighborhood is the first to leave the square
        (1.01, 100.0, 1, 1, 3, r"level 3: neighborhood Rect\(x0=0\.0, y0=1\.0, x1=1\.0, "
                               r"y1=1\.7658562885991569\) leaves the unit square"),
        (3.0, 1.0, 2, 1, 60, r"level 41: segment length 9\.094947017729282e-13 below resolution"),
    ])
    def test_first_bad_segment_named(self, L, c, N, M, depth, message):
        with pytest.raises(HierarchyDepthError, match=f"^{message}$"):
            build_hierarchy(L, c, depth, toy_constants(L, c, N=N, M=M))


class TestLimitDensity:
    SQUARES = [(Rect(0.5, 0.5, 1.0, 1.0), 1),
               (Rect(0.25, 0.25, 0.5, 0.5), 2),
               (Rect(0.125, 0.125, 0.25, 0.25), 3)]

    def test_outside_squares_is_one(self):
        f = assemble_limit_density(0.5, self.SQUARES)
        assert f.value_at(0.05, 0.9) == 1.0

    def test_amplitude_shrinks_with_index(self):
        f = assemble_limit_density(0.5, self.SQUARES)
        import random
        random.seed(1)
        for _ in range(500):
            x = 0.25 + 0.2499 * random.random()
            y = 0.25 + 0.2499 * random.random()
            assert 1.0 <= f.value_at(x, y) <= 1.5 + 1e-12
        for _ in range(500):
            x = 0.125 + 0.1249 * random.random()
            y = 0.125 + 0.1249 * random.random()
            assert 1.0 <= f.value_at(x, y) <= 1.0 + 1.0 / 3 + 1e-12

    def test_first_square_uses_full_amplitude_cap(self):
        f = assemble_limit_density(0.5, self.SQUARES[:1])
        vals = set()
        import random
        random.seed(2)
        for _ in range(2000):
            x = 0.5 + 0.4999 * random.random()
            y = 0.5 + 0.4999 * random.random()
            vals.add(f.value_at(x, y))
        assert max(vals) == pytest.approx(1.5)

    def test_overlapping_squares_rejected(self):
        with pytest.raises(ValueError):
            assemble_limit_density(
                0.5, [(Rect(0.4, 0.4, 0.8, 0.8), 1), (Rect(0.5, 0.5, 0.9, 0.9), 2)])
