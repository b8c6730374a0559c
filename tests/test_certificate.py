import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import (
    claim1_lhs,
    claim1_margin,
    claim2_bound,
    claim3_lhs,
    evaluate_stretch,
    feasibility_report,
    marked_grid,
    regularity,
    required_depth,
    schedule_constants,
    toy_constants,
)
from bknet import PLMap, Rect, identity_map
from bknet.certificate import CertificateConstants, MarkedGrid, pigeonhole_row


class TestMarkedGrid:
    def test_small_enumeration(self):
        g = marked_grid(2, 1)
        assert set(g.points) == {(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5)}
        assert len(g.pairs) == 4

    def test_point_formula_single_square(self):
        g = marked_grid(1, 2)
        for p in range(3):
            for q in range(3):
                assert g.point(1, p, q) == (p / 2, q / 2)

    def test_counts_match_direct_enumeration(self):
        N, M = 3, 2
        g = marked_grid(N, M)
        # oracle: enumerate distinct vertices and horizontal edges directly
        NM = N * M
        verts = {(a / NM, b / NM) for a in range(NM + 1) for b in range(M + 1)}
        edges = {((a / NM, b / NM), ((a + 1) / NM, b / NM))
                 for a in range(NM) for b in range(M + 1)}
        assert set(g.points) == verts
        assert len(g.points) == (N * M + 1) * (M + 1)
        assert set(g.pairs) == edges
        assert len(g.pairs) == N * M * (M + 1) == 18

    def test_pairs_are_horizontal(self):
        for (a, b) in marked_grid(4, 3).pairs:
            assert a[1] == b[1]

    @pytest.mark.parametrize("N,M", [(0, 2), (2, 0), (-1, 2), (3, -1)])
    def test_non_positive_N_or_M_rejected(self, N, M):
        # the constructor itself refuses them, before any point or pair is made
        for make in (MarkedGrid, marked_grid):
            with pytest.raises(ValueError, match="N and M must be >= 1"):
                make(N, M)


class TestRegularity:
    def test_axis_vector_regular(self):
        assert regularity((1.0 / 8, 0.0), 1.0, 8, 0.5)

    def test_vertical_vector_irregular(self):
        assert not regularity((0.0, 1.0 / 8), 1.0, 8, 0.5)

    def test_threshold_is_strict(self):
        A, N, l = 1.0, 8, 0.25
        assert not regularity(((1 - l) * A / N, 0.0), A, N, l)


class TestClaimEvaluators:
    def test_claim1_infeasible_example(self):
        consts = CertificateConstants(L=2, c=0.1, N=100, M=10, k=0.001,
                                      l=0.5, m=0.01, mu=0.01, eps=1e-6)
        val = claim1_lhs(consts, 0.5)
        assert val == pytest.approx(0.5291, abs=2e-4)
        assert val >= 0.5   # infeasible tuple

    def test_claim1_boundary_term_dominates_degenerate_limit(self):
        # k -> 0, l -> 0, M large: lhs -> A + 2L/N > A
        consts = CertificateConstants(L=2, c=0.1, N=100, M=10 ** 6,
                                      k=1e-15, l=1e-15, m=0.01,
                                      mu=0.01, eps=1e-6)
        A = 0.5
        assert claim1_lhs(consts, A) == pytest.approx(A + 2 * consts.L / consts.N,
                                                      rel=1e-9)

    def test_claim2_examples(self):
        c1 = CertificateConstants(L=2, c=1, N=11, M=2, k=1e-7, l=4e-6,
                                  m=0.01, mu=0.01, eps=1e-6)
        assert claim2_bound(c1) == pytest.approx(4 * math.sqrt(16e-12 + 4e-6),
                                                 rel=1e-12)
        # monotone increasing in l
        prev = 0.0
        for l in np.linspace(1e-8, 0.9, 50):
            c = CertificateConstants(L=2, c=1, N=11, M=2, k=1e-7, l=float(l),
                                     m=0.01, mu=0.01, eps=1e-6)
            cur = claim2_bound(c)
            assert cur > prev
            prev = cur

    def test_claim3_examples(self):
        ok = CertificateConstants(L=2, c=0.1, N=1000, M=1000, k=1e-7,
                                  l=1e-6, m=0.008, mu=0.01, eps=1e-9)
        u = 0.008 + 4 / 1000
        assert claim3_lhs(ok) * ok.N ** 2 == pytest.approx(
            4 * u + math.pi * u * u, rel=1e-12)
        assert claim3_lhs(ok) < ok.c / (2 * ok.N ** 2)
        bad = CertificateConstants(L=2, c=0.1, N=1000, M=1000, k=1e-7,
                                   l=1e-6, m=0.02, mu=0.01, eps=1e-9)
        assert claim3_lhs(bad) >= bad.c / (2 * bad.N ** 2)


class TestScheduler:
    @pytest.mark.parametrize("L,c", [(1.1, 0.01), (2.0, 0.1), (5.0, 1.0)])
    def test_all_inequalities_certify(self, L, c):
        consts = schedule_constants(L, c)
        rep = feasibility_report(consts)
        for key in ("claim1", "claim2", "claim3", "epsilon_caps"):
            assert rep[key]["pass"], key
            assert rep[key]["margin"] >= 0.05, key

    def test_eps_cap(self):
        consts = schedule_constants(2.0, 0.1)
        assert consts.eps <= consts.c / (8 * consts.N ** 2 * consts.L ** 2)
        assert consts.eps <= consts.mu / consts.N ** 2

    def test_weaker_map_needs_smaller_grid(self):
        assert schedule_constants(1.1, 1.0).N < schedule_constants(2.0, 0.1).N

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            schedule_constants(1.0, 0.5)
        with pytest.raises(ValueError):
            schedule_constants(2.0, 0.0)


class TestRequiredDepth:
    def test_strict_inequality_at_exact_power(self):
        # (1+1)^2 == L^2 exactly, so one more level is needed
        assert required_depth(2.0, 1.0) == 3

    def test_l_must_exceed_one(self):
        with pytest.raises(ValueError):
            required_depth(1.0, 0.5)

    def test_tiny_gain(self):
        d = required_depth(2.0, 1e-9)
        assert d == math.ceil(math.log(4) / math.log1p(1e-9))
        assert (1 + 1e-9) ** min(d, 10 ** 7) > 1  # sanity on the arithmetic


class TestEvaluateStretch:
    CONSTS = toy_constants(2.0, 1.0, N=4, M=2)

    def test_identity(self):
        g = marked_grid(4, 2)
        rep = evaluate_stretch(lambda p: p, g, self.CONSTS)
        assert rep.A == 1.0
        assert np.allclose(rep.pair_ratios, 1.0)
        assert not rep.any_flagged
        assert np.allclose(rep.vectors[..., 0], 1.0 / 4)
        assert np.allclose(rep.vectors[..., 1], 0.0)
        assert rep.regular.all()
        assert rep.regular_squares.all()

    @pytest.mark.parametrize("N,M", [(8, 2), (4, 3)])
    def test_grid_of_another_shape_rejected(self, N, M):
        with pytest.raises(ValueError, match=rf"the grid has \(N, M\) = \(4, 2\) but the "
                                             rf"constants were made for \({N}, {M}\)"):
            evaluate_stretch(lambda p: p, marked_grid(4, 2), toy_constants(2.0, 1.0, N=N, M=M))

    def test_uniform_stretch_is_never_flagged(self):
        k = self.CONSTS.k
        g = marked_grid(4, 2)
        rep = evaluate_stretch(lambda p: ((1 + 2 * k) * p[0], p[1]),
                               g, self.CONSTS)
        assert rep.A == pytest.approx(1 + 2 * k)
        assert not rep.any_flagged

    def test_planted_perturbation_is_flagged(self):
        N, M = 4, 2
        g = marked_grid(N, M)
        NM = N * M
        target = (3 / NM, 1 / NM)
        delta = 1.0 / (2 * NM)

        def f(p):
            if p == target:
                return (p[0] + delta, p[1])
            return p

        rep = evaluate_stretch(f, g, self.CONSTS)
        assert rep.any_flagged
        assert rep.flagged_ratio == pytest.approx(1.5, abs=1e-12)
        assert rep.flagged_pair == ((2 / NM, 1 / NM), (3 / NM, 1 / NM))

    def test_translation_invariance(self):
        g = marked_grid(4, 2)
        base = evaluate_stretch(lambda p: p, g, self.CONSTS)
        moved = evaluate_stretch(lambda p: (p[0] + 5.0, p[1] - 3.0),
                                 g, self.CONSTS)
        assert moved.A == base.A
        assert np.array_equal(moved.pair_ratios, base.pair_ratios)
        assert np.array_equal(moved.vectors, base.vectors)
        assert moved.flagged_index == base.flagged_index

    def test_bilipschitz_base_stretch_window(self):
        g = marked_grid(4, 2)
        L = 2.0
        for fn in (lambda p: (p[0] / L, p[1] / L),
                   lambda p: (L * p[0], L * p[1]),
                   lambda p: p):
            rep = evaluate_stretch(fn, g, self.CONSTS)
            assert 1 / L - 1e-12 <= rep.A <= L + 1e-12

    def test_overflowing_ratio_is_rejected_without_a_warning(self):
        # the image of (3/8, 0) is finite, but the gap to its neighbours
        # overflows; the first pair through it is (2/8, 0)-(3/8, 0)
        g = marked_grid(4, 2)
        far = identity_map(Rect(0.0, 0.0, 1.0, 0.25), 8, 2)
        verts = far.vertices.copy()
        verts[3, 0] = 1e308
        far = PLMap(far.domain, far.nx, far.ny, verts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"marked pair \(\(0\.25, 0\.0\), "
                                                 r"\(0\.375, 0\.0\)\) has the non-finite "
                                                 r"ratio inf"):
                evaluate_stretch(far, g, self.CONSTS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_image_is_rejected(self, bad):
        g = marked_grid(4, 2)
        target = (0.5, 0.125)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite ratio"):
                evaluate_stretch(lambda p: (bad, p[1]) if p == target else p, g, self.CONSTS)

    def test_overflowing_base_stretch_is_rejected(self):
        # every image is finite, but the two ends are 2e308 apart
        g = marked_grid(4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="base stretch A = inf is not finite"):
                evaluate_stretch(lambda p: (1e308 * (2.0 * p[0] - 1.0), p[1]), g, self.CONSTS)


class TestClaim2Algebra:
    def test_random_admissible_vectors_obey_deviation_bound(self):
        rng = np.random.default_rng(11)
        A, N, l = 0.8, 16, 0.05
        k = l / 2
        n = 100_000
        X = rng.uniform((1 - l) * A / N, (1 + k) * A / N, n)
        cap = (1 + k) ** 2 * A ** 2 / N ** 2
        ymax = np.sqrt(np.maximum(cap - X ** 2, 0.0))
        Y = rng.uniform(-1.0, 1.0, n) * ymax
        dev = N * np.hypot(X - A / N, Y)
        assert (dev <= 2 * A * math.sqrt(l * l + l) + 1e-12).all()


class TestPigeonhole:
    def test_all_squares_irregular_gives_guaranteed_row_count(self):
        rng = np.random.default_rng(5)
        N, M = 40, 3
        for _ in range(20):
            flags = np.zeros((N - 1, M + 1, M + 1), dtype=bool)
            for i in range(N - 1):
                flags[i, rng.integers(M + 1), rng.integers(M + 1)] = True
            _, _, count = pigeonhole_row(flags)
            assert count >= (N - 1) / (2 * M + 2)

    def test_no_irregular_squares(self):
        flags = np.zeros((3, 2, 2), dtype=bool)
        assert pigeonhole_row(flags)[2] == 0


def evaluate_stretch_oracle(f, grid, consts):
    """The per-pair and per-vector loop evaluate_stretch replaced: two map
    calls per marked pair and per vector W.  Returns the StretchReport
    fields as a dict."""
    N, M = grid.N, grid.M

    def ev(p):
        return np.asarray(f(p), dtype=float)

    fa = ev((0.0, 0.0))
    fb = ev((1.0, 0.0))
    A = float(np.hypot(*(fb - fa)))

    pairs = grid.pairs
    ratios = np.empty(len(pairs))
    gap = 1.0 / (N * M)
    flagged_index = None
    threshold = (1.0 + consts.k) * A
    for idx, (p, q) in enumerate(pairs):
        d = float(np.hypot(*(ev(q) - ev(p))))
        ratios[idx] = d / gap
        if flagged_index is None and ratios[idx] >= threshold:
            flagged_index = idx

    vectors = np.empty((N - 1, M + 1, M + 1, 2)) if N > 1 else np.empty((0, M + 1, M + 1, 2))
    regular = np.zeros(vectors.shape[:3], dtype=bool)
    for i in range(1, N):
        for p in range(M + 1):
            for q in range(M + 1):
                w = ev(grid.point(i + 1, p, q)) - ev(grid.point(i, p, q))
                vectors[i - 1, p, q] = w
                regular[i - 1, p, q] = w[0] > (1.0 - consts.l) * A / N
    regular_squares = regular.all(axis=(1, 2)) if N > 1 else np.zeros(0, dtype=bool)

    return dict(
        A=A,
        pair_ratios=ratios,
        flagged_index=flagged_index,
        flagged_pair=pairs[flagged_index] if flagged_index is not None else None,
        flagged_ratio=float(ratios[flagged_index]) if flagged_index is not None else None,
        vectors=vectors,
        regular=regular,
        regular_squares=regular_squares,
    )


def assert_report_is_bitwise(rep, want):
    for name, value in want.items():
        got = getattr(rep, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, name
            assert got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
        else:
            assert type(got) is type(value), name
            assert got == value, name


class TestEvaluateStretchOracle:
    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 5), M=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           wobble=st.floats(0.0, 0.4), k=st.floats(1e-3, 0.5), l=st.floats(1e-3, 0.9))
    def test_random_plmaps(self, N, M, seed, wobble, k, l):
        consts = CertificateConstants(L=2.0, c=1.0, N=N, M=M, k=k, l=l,
                                      m=0.1, mu=0.1, eps=1e-3)
        m0 = identity_map(Rect(0.0, 0.0, 1.0, 1.0 / N), N * M, M)
        rng = np.random.default_rng(seed)
        verts = m0.vertices + wobble / (N * M) * rng.standard_normal(m0.vertices.shape)
        f = PLMap(m0.domain, m0.nx, m0.ny, verts)
        grid = marked_grid(N, M)
        assert_report_is_bitwise(evaluate_stretch(f, grid, consts),
                                 evaluate_stretch_oracle(f, grid, consts))

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(1, 5), M=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           planted=st.integers(0, 6), shift=st.floats(-1.0, 1.0))
    def test_planted_lambdas(self, N, M, seed, planted, shift):
        """Plain callables returning tuples: a shear plus shifted points."""
        consts = toy_constants(2.0, 1.0, N=N, M=M)
        grid = marked_grid(N, M)
        rng = np.random.default_rng(seed)
        pts = grid.points
        moved = {pts[int(i)]: rng.standard_normal(2) * shift / (N * M)
                 for i in rng.choice(len(pts), min(planted, len(pts)), replace=False)}

        def f(p):
            dx, dy = moved.get(tuple(p), (0.0, 0.0))
            return (p[0] + 0.3 * p[1] + dx, 0.7 * p[1] + dy)

        assert_report_is_bitwise(evaluate_stretch(f, grid, consts),
                                 evaluate_stretch_oracle(f, grid, consts))

    @pytest.mark.parametrize("N,M", [(1, 1), (1, 3), (4, 2), (3, 5)])
    def test_f_called_once_per_marked_point(self, N, M):
        grid = marked_grid(N, M)
        calls = []

        def f(p):
            calls.append(p)
            return p

        evaluate_stretch(f, grid, toy_constants(2.0, 1.0, N=N, M=M))
        assert len(calls) == (N * M + 1) * (M + 1)
        assert calls == grid.points
