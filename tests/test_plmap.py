import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import (
    PLMap,
    Rect,
    UNIT_SQUARE,
    cell_image_areas_shoelace,
    constant_field,
    identity_map,
    make_checkerboard,
    pl_metrics,
    plmap_from_json,
    plmap_to_json,
)
from bknet.plmap import DegenerateTriangleError, _jacobians


def random_valid_map(rng, domain=UNIT_SQUARE, nx=5, ny=4, wobble=0.2):
    """Identity plus a small wobble; small enough to keep orientation."""
    m = identity_map(domain, nx, ny)
    verts = m.vertices + wobble / max(nx, ny) * rng.standard_normal(m.vertices.shape)
    return PLMap(domain, nx, ny, verts)


def triangles_oracle(m):
    """Two triangles per cell, lower then upper, cells row-major in x."""
    tris = []
    for j in range(m.ny):
        for i in range(m.nx):
            v00 = m.vidx(i, j)
            v10 = m.vidx(i + 1, j)
            v01 = m.vidx(i, j + 1)
            v11 = m.vidx(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return np.array(tris, dtype=int)


class TestTriangles:
    @pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (8, 2), (5, 4)])
    def test_matches_per_cell_loop(self, nx, ny):
        m = identity_map(UNIT_SQUARE, nx, ny)
        got = m.triangles()
        want = triangles_oracle(m)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestJacobians:
    @settings(max_examples=30, deadline=None)
    @given(nx=st.integers(1, 6), ny=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
           x0=st.floats(-3, 3), y0=st.floats(-3, 3),
           w=st.floats(0.25, 4), h=st.floats(0.25, 4))
    def test_match_per_triangle_affine_solve(self, nx, ny, seed, x0, y0, w, h):
        """Oracle: solve D [P1-P0, P2-P0] = [Q1-Q0, Q2-Q0] for each
        triangle of the per-cell loop, from the grid's reference points."""
        dom = Rect(x0, y0, x0 + w, y0 + h)
        m0 = identity_map(dom, nx, ny)
        rng = np.random.default_rng(seed)
        m = PLMap(dom, nx, ny, rng.standard_normal(m0.vertices.shape))
        ref = np.array([(m.grid_x(v % (nx + 1)), m.grid_y(v // (nx + 1)))
                        for v in range(len(m.vertices))])
        want_det, want_smax = [], []
        for t in triangles_oracle(m):
            P = (ref[t[1:]] - ref[t[0]]).T
            Q = (m.vertices[t[1:]] - m.vertices[t[0]]).T
            D = np.linalg.solve(P.T, Q.T).T
            want_det.append(np.linalg.det(D))
            want_smax.append(np.linalg.svd(D, compute_uv=False)[0])
        dets, smax = _jacobians(m)
        scale = 1.0 / min(w / nx, h / ny)
        assert np.allclose(dets, want_det, rtol=1e-9, atol=1e-9 * scale ** 2)
        assert np.allclose(smax, want_smax, rtol=1e-9, atol=1e-9 * scale)


class TestPlMetrics:
    def test_identity_exact(self):
        m = identity_map(UNIT_SQUARE, 6, 6)
        met = pl_metrics(m, constant_field(1.0))
        assert np.allclose(met.dets, 1.0, atol=1e-14)
        assert met.lip == pytest.approx(1.0, abs=1e-14)
        assert met.lip_inv == pytest.approx(1.0, abs=1e-14)
        assert met.mismatch_area == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_affine(self):
        m = identity_map(UNIT_SQUARE, 3, 3)
        verts = m.vertices * np.array([2.0, 3.0])
        met = pl_metrics(PLMap(UNIT_SQUARE, 3, 3, verts), constant_field(6.0))
        assert np.allclose(met.dets, 6.0)
        assert met.lip == pytest.approx(3.0)
        assert met.lip_inv == pytest.approx(0.5)
        assert met.mismatch_area == 0.0

    def test_flipped_triangle_detected(self):
        m = identity_map(UNIT_SQUARE, 2, 2)
        verts = m.vertices.copy()
        # drag the center vertex far enough to flip adjacent triangles
        verts[m.vidx(1, 1)] = (-1.0, -1.0)
        met = pl_metrics(PLMap(UNIT_SQUARE, 2, 2, verts), constant_field(1.0))
        assert (met.dets < 0).any()

    def test_collapsed_triangle_rejected(self):
        m = identity_map(UNIT_SQUARE, 2, 2)
        verts = m.vertices.copy()
        verts[m.vidx(1, 1)] = verts[m.vidx(0, 1)]   # duplicate vertex images
        verts[m.vidx(1, 0)] = verts[m.vidx(0, 0)]
        verts[m.vidx(1, 2)] = verts[m.vidx(0, 2)]
        with pytest.raises(DegenerateTriangleError):
            pl_metrics(PLMap(UNIT_SQUARE, 2, 2, verts), constant_field(1.0))

    def test_mismatch_area_against_checkerboard(self):
        field = make_checkerboard(4, 1.0)
        m = identity_map(field.domain, 8, 2)
        met = pl_metrics(m, field)
        # identity has det 1 everywhere: mismatch on the two 1+c strips
        assert met.mismatch_area == pytest.approx(2 * (1 / 4) * (1 / 4))

    def test_cell_image_area_matches_shoelace(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = random_valid_map(rng)
            met = pl_metrics(m, constant_field(1.0))
            assert np.abs(met.cell_image_areas
                          - cell_image_areas_shoelace(m)).max() < 1e-12


class TestEvaluation:
    def test_interpolates_vertices_exactly(self):
        rng = np.random.default_rng(4)
        m = random_valid_map(rng, nx=4, ny=3)
        for j in range(4):
            for i in range(5):
                p = (m.grid_x(i), m.grid_y(j))
                assert np.allclose(m(p), m.vertices[m.vidx(i, j)], atol=1e-14)

    def test_affine_inside_triangle(self):
        rng = np.random.default_rng(9)
        m = random_valid_map(rng, nx=3, ny=3)
        # midpoint of two points in the same (lower) triangle
        a = np.array([0.05, 0.01])
        b = np.array([0.30, 0.02])
        mid = (a + b) / 2
        assert np.allclose(m(mid), (m(a) + m(b)) / 2, atol=1e-13)

    def test_outside_domain_rejected(self):
        m = identity_map(UNIT_SQUARE, 2, 2)
        with pytest.raises(ValueError):
            m((1.5, 0.5))


class TestMaxStretchVsLip:
    def test_marked_pair_ratios_within_lipschitz_window(self):
        from bknet import evaluate_stretch, marked_grid, toy_constants
        field = make_checkerboard(4, 1.0)
        rng = np.random.default_rng(17)
        consts = toy_constants(4.0, 1.0, 4, 2)
        for _ in range(10):
            m = random_valid_map(rng, domain=field.domain, nx=8, ny=2,
                                 wobble=0.05)
            met = pl_metrics(m, field)
            rep = evaluate_stretch(m, marked_grid(4, 2), consts)
            assert rep.pair_ratios.max() <= met.lip + 1e-9
            assert rep.pair_ratios.min() >= 1.0 / met.lip_inv - 1e-9


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        m = random_valid_map(rng)
        m2 = plmap_from_json(plmap_to_json(m))
        assert m2.domain == m.domain
        assert m2.nx == m.nx and m2.ny == m.ny
        assert np.array_equal(m2.vertices, m.vertices)


class TestConstruction:
    @pytest.mark.parametrize("nx,ny,field", [(0, 0, "nx"), (2, 0, "ny"), (-1, -1, "nx")])
    def test_empty_grid_rejected_with_the_field_named(self, nx, ny, field):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            PLMap(UNIT_SQUARE, nx, ny, np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_vertex_image_rejected(self, bad, axis):
        verts = identity_map(UNIT_SQUARE, 2, 2).vertices.copy()
        verts[4, axis] = bad
        with pytest.raises(ValueError, match="vertex image 4 has a non-finite coordinate"):
            PLMap(UNIT_SQUARE, 2, 2, verts)
