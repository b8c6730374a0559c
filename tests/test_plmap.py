import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import (
    PLMap,
    Rect,
    UNIT_SQUARE,
    constant_field,
    identity_map,
    make_checkerboard,
    pl_metrics,
    plmap_from_json,
    plmap_to_json,
)
from bknet.plmap import DegenerateTriangleError, _jacobians
from bknet.svgplot import plmap_svg
from oracles import cell_image_areas_shoelace, plmap_call_2vector


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
        ref = m0.vertices
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
        ref = identity_map(m.domain, 4, 3).vertices
        for j in range(4):
            for i in range(5):
                p = ref[m.vidx(i, j)]
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

    @settings(max_examples=150, deadline=None)
    @given(nx=st.integers(1, 9), ny=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           dyadic=st.booleans(), x0=st.floats(-50, 50), y0=st.floats(-50, 50),
           w=st.floats(0.01, 40), h=st.floats(0.01, 40),
           wobble=st.sampled_from([0.0, 0.05, 0.3, 3.0]))
    def test_bitwise_the_2vector_formula(self, nx, ny, seed, dyadic, x0, y0, w, h, wobble):
        """Oracle: the 2-vector numpy formula, at every grid point, the
        four corners, the top row and right column (where the cell index
        is clamped), points on the cells' diagonals and random points.  On
        a dyadic domain with a power-of-two shape the diagonal points have
        t == s exactly."""
        rng = np.random.default_rng(seed)
        if dyadic:   # power-of-two shapes, so that u and v are exact
            nx, ny = 1 << nx % 4, 1 << ny % 3
            x0, y0 = float(rng.integers(-64, 64)) / 8, float(rng.integers(-64, 64)) / 8
            w, h = nx * 2.0 ** int(rng.integers(-3, 3)), ny * 2.0 ** int(rng.integers(-3, 3))
        dom = Rect(x0, y0, x0 + w, y0 + h)
        ref = identity_map(dom, nx, ny).vertices
        m = PLMap(dom, nx, ny, ref + wobble * rng.standard_normal(ref.shape))
        xs = dom.x0 + dom.width * np.arange(nx + 1) / nx
        ys = dom.y0 + dom.height * np.arange(ny + 1) / ny
        pts = [tuple(q) for q in ref]
        pts += [(dom.x0, dom.y0), (dom.x1, dom.y0), (dom.x0, dom.y1), (dom.x1, dom.y1)]
        pts += [(dom.x1, float(y)) for y in rng.uniform(dom.y0, dom.y1, 4)]
        pts += [(float(x), dom.y1) for x in rng.uniform(dom.x0, dom.x1, 4)]
        pts += [(dom.x1, float(y)) for y in ys] + [(float(x), dom.y1) for x in xs]
        cells = list(zip(rng.integers(nx, size=6).tolist(), rng.integers(ny, size=6).tolist()))
        diag = [(i, j, k / 16) for i, j in cells for k in range(17)]
        for i, j, s in diag:
            pts.append((dom.x0 + (i + s) * (dom.width / nx), dom.y0 + (j + s) * (dom.height / ny)))
        pts += list(zip(rng.uniform(dom.x0, dom.x1, 40).tolist(),
                        rng.uniform(dom.y0, dom.y1, 40).tolist()))
        for p in pts:
            p = (min(max(p[0], dom.x0), dom.x1), min(max(p[1], dom.y0), dom.y1))
            got, want = m(p), plmap_call_2vector(m, p)
            assert got.dtype == want.dtype == np.float64 and got.shape == (2,)
            assert got.tobytes() == want.tobytes(), p
        if dyadic:   # the diagonal points inside their cell: s and t are exact
            for (i, j, s), (px, py) in zip(diag, pts[-40 - len(diag):-40]):
                u = (px - dom.x0) / dom.width * nx
                v = (py - dom.y0) / dom.height * ny
                assert s == 1.0 or u - i == v - j == s

    def test_vertices_are_a_read_only_float64_copy(self):
        verts = identity_map(UNIT_SQUARE, 2, 2).vertices.astype(np.float32)
        m = PLMap(UNIT_SQUARE, 2, 2, verts)
        assert m.vertices.dtype == np.float64 and m(np.array([0.3, 0.6])).dtype == np.float64
        verts[4] = (9.0, 9.0)
        assert m.vertices[4].tolist() == [0.5, 0.5]
        with pytest.raises(ValueError, match="read-only"):
            m.vertices[4, 0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            m.vertices += 1.0
        assert m((0.5, 0.5)).tolist() == [0.5, 0.5]

    def test_a_pickled_or_copied_map_stays_read_only(self):
        m = random_valid_map(np.random.default_rng(5))
        for m2 in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert not m2.vertices.flags.writeable
            assert np.array_equal(m2.vertices, m.vertices)
            assert m2((0.3, 0.7)).tobytes() == m((0.3, 0.7)).tobytes()

    def test_integer_vertices_stored_as_float64(self):
        m = PLMap(UNIT_SQUARE, 1, 1, np.array([[0, 0], [2, 0], [0, 2], [2, 2]]))
        assert m.vertices.dtype == np.float64
        assert m((0.25, 0.5)).tolist() == [0.5, 1.0]


class TestIdentityMap:
    def test_last_vertex_is_the_far_corner(self):
        dom = Rect(-0.7, 4.7, 5.0, 7.4)
        m = identity_map(dom, 26, 4)
        assert m.vertices[-1].tolist() == [5.0, 7.4]
        assert m(m.vertices[-1]).tolist() == [5.0, 7.4]

    @settings(max_examples=100, deadline=None)
    @given(nx=st.integers(1, 40), ny=st.integers(1, 40),
           x0=st.floats(-20, 20), y0=st.floats(-20, 20),
           w=st.floats(0.01, 20), h=st.floats(0.01, 20))
    def test_every_vertex_in_the_domain_and_fixed(self, nx, ny, x0, y0, w, h):
        """Every identity vertex lies in the domain, the last column and
        row exactly on x1 and y1, and the map sends each vertex to itself,
        to within an ulp of the domain's largest coordinate per
        operation."""
        dom = Rect(x0, y0, x0 + w, y0 + h)
        m = identity_map(dom, nx, ny)
        V = m.vertices.reshape(ny + 1, nx + 1, 2)
        assert (V[:, -1, 0] == dom.x1).all() and (V[-1, :, 1] == dom.y1).all()
        tol = 8 * np.spacing(max(abs(dom.x0), abs(dom.x1), abs(dom.y0), abs(dom.y1)))
        for v in m.vertices:
            assert dom.contains_point(*v)
            assert np.abs(m(v) - v).max() <= tol


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

    @pytest.mark.parametrize("nx,ny,field", [(2.0, 2, "nx"), (2, 2.0, "ny"), (True, 2, "nx"),
                                             (2, False, "ny"), (np.int64(2), 2, "nx"),
                                             ("2", 2, "nx")])
    def test_non_int_shape_rejected_with_the_field_named(self, nx, ny, field):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            PLMap(UNIT_SQUARE, nx, ny, np.zeros((9, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_vertex_image_rejected(self, bad, axis):
        verts = identity_map(UNIT_SQUARE, 2, 2).vertices.copy()
        verts[4, axis] = bad
        with pytest.raises(ValueError, match="vertex image 4 has a non-finite coordinate"):
            PLMap(UNIT_SQUARE, 2, 2, verts)


class TestSvg:
    def test_an_extent_that_overflows_is_refused(self):
        m = identity_map(Rect(0.0, 0.0, 1.0, 0.25), 4, 2)
        verts = m.vertices.copy()
        verts[3, 0], verts[4, 0] = 1.7e308, -1.7e308
        with pytest.raises(ValueError, match=r"cannot draw the extent \[-inf, inf\]"):
            plmap_svg(PLMap(m.domain, 4, 2, verts))

    def test_a_huge_but_finite_extent_is_drawn(self):
        m = identity_map(Rect(0.0, 0.0, 1.0, 0.25), 4, 2)
        verts = m.vertices.copy()
        verts[3, 0] = 1e308
        text = plmap_svg(PLMap(m.domain, 4, 2, verts))
        assert 'viewBox="-5.0000000000000006e+306 ' in text
        assert "inf" not in text and "nan" not in text
