"""The incremental search step and the batched distortion enumeration
against the loops they replaced.

The oracles below are the straightforward versions: a search step that
rebuilds the whole map and recomputes every triangle, a loop over all
permutations, and a 2-swap descent that evaluates one swap at a time.
Every comparison is bitwise (==, array_equal), not approximate.
"""

import math
import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import distortion, greedy_distortion, make_checkerboard, pair_distortion
from bknet import marked_grid, search_min_stretch, toy_constants
from bknet.distortion import _CHUNK, _dist_matrix, _nn_matching, _Pairs, _two_swap
from bknet.plmap import PLMap, _centroid_densities, _jacobians, identity_map
from bknet.search import _HYPOT_LO, JAC_PENALTY, _Descent, _vertex_table


# ---------------------------------------------------------------------------
# oracles

def oracle_jacobians(m):
    dx = m.domain.width / m.nx
    dy = m.domain.height / m.ny
    V = m.vertices.reshape(m.ny + 1, m.nx + 1, 2)
    q00, q10, q01, q11 = V[:-1, :-1], V[:-1, 1:], V[1:, :-1], V[1:, 1:]
    D = np.empty((m.ny, m.nx, 2, 2, 2))
    e1, e2 = q10 - q00, q11 - q00
    D[:, :, 0, :, 0] = e1 / dx
    D[:, :, 0, :, 1] = (e2 - e1) / dy
    e1, e2 = q11 - q00, q01 - q00
    D[:, :, 1, :, 1] = e2 / dy
    D[:, :, 1, :, 0] = (e1 - e2) / dx
    D = D.reshape(-1, 2, 2)
    dets = D[:, 0, 0] * D[:, 1, 1] - D[:, 0, 1] * D[:, 1, 0]
    frob2 = (D ** 2).sum(axis=(1, 2))
    disc = np.sqrt(np.maximum(frob2 ** 2 - 4.0 * dets ** 2, 0.0))
    return dets, np.sqrt((frob2 + disc) / 2.0)


def oracle_objective(verts, m, gap, rho, tri_area, L):
    dets, smax = oracle_jacobians(PLMap(m.domain, m.nx, m.ny, verts))
    if np.any(dets <= 0):
        return np.inf, np.inf
    lip = float(smax.max())
    if lip > L:
        return np.inf, lip
    V = verts.reshape(m.ny + 1, m.nx + 1, 2)
    diffs = V[:, 1:] - V[:, :-1]
    ratios = np.hypot(diffs[..., 0], diffs[..., 1]) / gap
    penalty = JAC_PENALTY * float((np.abs(dets - rho) * tri_area).sum())
    return float(ratios.max()) + penalty, lip


def oracle_search(field, consts, budget, seed):
    """(trace, vertices) of the search loop that rebuilds every step,
    started with each vertex at its marked point."""
    nx, ny = consts.N * consts.M, consts.M
    m0 = PLMap(field.domain, nx, ny, np.array(marked_grid(consts.N, consts.M).points))
    gap = field.domain.width / nx
    rho = _centroid_densities(field, nx, ny)
    tri_area = (field.domain.width / nx) * (field.domain.height / ny) / 2.0
    verts = m0.vertices.copy()
    obj, _ = oracle_objective(verts, m0, gap, rho, tri_area, consts.L)
    trace = [obj]
    rng = np.random.default_rng(seed)
    for it in range(budget):
        if it % 1024 == 0:
            # the documented layout: per block of 1,024 steps, whatever
            # the budget, the vertices, then the directions, then the
            # step lengths
            vs = rng.integers(len(verts), size=1024)
            dirs = rng.standard_normal((1024, 2))
            us = rng.random(1024)
        v, direction = int(vs[it % 1024]), dirs[it % 1024]
        scale = 0.5 * gap * float(us[it % 1024]) * 0.97 ** (it / 50.0)
        cand = verts.copy()
        cand[v] += scale * direction
        cobj, _ = oracle_objective(cand, m0, gap, rho, tri_area, consts.L)
        if cobj < obj:
            verts, obj = cand, cobj
            trace.append(obj)
    return trace, verts


def oracle_eval(DX, DY, sigma, iu, ju):
    dx = DX[iu, ju]
    dy = DY[sigma[iu], sigma[ju]]
    if np.any(dx == 0) or np.any(dy == 0):
        raise ValueError("duplicate points in input")
    r = dy / dx
    return float(r.max()), float((1.0 / r).max())


def oracle_pair_distortion(X, Y):
    X, Y = np.asarray(X, float), np.asarray(Y, float)
    n = len(X)
    DX, DY = _dist_matrix(X), _dist_matrix(Y)
    iu, ju = np.triu_indices(n, k=1)
    best = None
    for perm in permutations(range(n)):
        lip, inv = oracle_eval(DX, DY, np.array(perm), iu, ju)
        if best is None or lip * inv < best[1] * best[2]:
            best = (perm, lip, inv)
    return best


def oracle_two_swap(DX, DY, sigma, iu, ju):
    n = len(sigma)
    cur_lip, cur_inv = oracle_eval(DX, DY, sigma, iu, ju)
    cur = cur_lip * cur_inv
    improved = True
    while improved:
        improved = False
        for a in range(n):
            for b in range(a + 1, n):
                sigma[a], sigma[b] = sigma[b], sigma[a]
                lip, inv = oracle_eval(DX, DY, sigma, iu, ju)
                if lip * inv < cur - 1e-15:
                    cur = lip * inv
                    improved = True
                else:
                    sigma[a], sigma[b] = sigma[b], sigma[a]
    return sigma


def oracle_greedy(X, Y, restarts, seed):
    X, Y = np.asarray(X, float), np.asarray(Y, float)
    n = len(X)
    DX, DY = _dist_matrix(X), _dist_matrix(Y)
    iu, ju = np.triu_indices(n, k=1)
    if restarts == 0:
        sigma = _nn_matching(X, Y, np.arange(n))
        return (tuple(int(s) for s in sigma), *oracle_eval(DX, DY, sigma, iu, ju))
    rng = np.random.default_rng(seed)
    best = None
    for r in range(restarts):
        order = np.arange(n) if r == 0 else rng.permutation(n)
        sigma = oracle_two_swap(DX, DY, _nn_matching(X, Y, order), iu, ju)
        lip, inv = oracle_eval(DX, DY, sigma, iu, ju)
        if best is None or lip * inv < best[1] * best[2]:
            best = (tuple(int(s) for s in sigma), lip, inv)
    return best


def same_result(res, want):
    return res.mapping == tuple(want[0]) and res.lip == want[1] and res.lip_inv == want[2]


# ---------------------------------------------------------------------------
# the search step

def descent_for(N, M, L, c=1.0):
    field = make_checkerboard(N, c)
    nx, ny = N * M, M
    m0 = identity_map(field.domain, nx, ny)
    gap = field.domain.width / nx
    rho = _centroid_densities(field, nx, ny)
    tri_area = (field.domain.width / nx) * (field.domain.height / ny) / 2.0
    return _Descent(m0, rho, L), (m0, gap, rho, tri_area)


def assert_state_matches_full(state, m0, gap, rho, tri_area):
    verts = state.vertices()
    dets, _ = _jacobians(PLMap(m0.domain, m0.nx, m0.ny, verts))
    assert np.array_equal(state.pen, np.abs(dets - rho) * tri_area)
    V = verts.reshape(m0.ny + 1, m0.nx + 1, 2)
    diffs = V[:, 1:] - V[:, :-1]
    assert state.ratiosl == (np.hypot(diffs[..., 0], diffs[..., 1]) / gap).ravel().tolist()
    assert state.obj == oracle_objective(verts, m0, gap, rho, tri_area, state.L)[0]


def move_and_check(state, m0, gap, rho, tri_area, v, px, py):
    """state.move decides as the full objective does, and keeps the arrays
    of a full recomputation."""
    cand = state.vertices()
    cand[v] = (px, py)
    cobj, _ = oracle_objective(cand, m0, gap, rho, tri_area, state.L)
    before = state.obj
    accepted = state.move(v, px, py)
    assert accepted == (cobj < before)
    assert_state_matches_full(state, m0, gap, rho, tri_area)
    return accepted


class TestJacobians:
    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.floats(-8, 1))
    @settings(max_examples=60, deadline=None)
    def test_match_full_differentials(self, nx, ny, seed, log_noise):
        rng = np.random.default_rng(seed)
        m = identity_map(make_checkerboard(3, 1.0).domain, nx, ny)
        verts = m.vertices + rng.standard_normal(m.vertices.shape) * 10.0 ** log_noise
        pm = PLMap(m.domain, nx, ny, verts)
        got, want = _jacobians(pm), oracle_jacobians(pm)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestSearchStep:
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2 ** 31 - 1),
           st.integers(0, 250), st.sampled_from([2.0, 1.25, 4.0]),
           st.sampled_from([1.0, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_search_matches_full_recomputation(self, N, M, seed, budget, L, c):
        field = make_checkerboard(N, c)
        consts = toy_constants(L, c, N=N, M=M)
        res = search_min_stretch(field, consts, budget, seed)
        trace, verts = oracle_search(field, consts, budget, seed)
        assert res.trace == tuple(trace)
        assert np.array_equal(res.plmap.vertices, verts)
        assert res.objective == trace[-1]

    def test_readme_run_matches(self):
        field = make_checkerboard(4, 1.0)
        consts = toy_constants(2.0, 1.0, N=4, M=2)
        res = search_min_stretch(field, consts, 3000, 42)
        trace, verts = oracle_search(field, consts, 3000, 42)
        assert res.trace == tuple(trace)
        assert np.array_equal(res.plmap.vertices, verts)

    @pytest.mark.parametrize("N,M", [(1, 1), (2, 1), (3, 2)])
    def test_every_vertex_of_a_small_grid(self, N, M):
        """Corners (1 or 2 touching triangles), edge vertices (3) and
        interior vertices (6): each single move decides as the full
        objective does, and the kept arrays stay those of a full
        recomputation."""
        state, (m0, gap, rho, tri_area) = descent_for(N, M, 2.0)
        rng = np.random.default_rng(N * 10 + M)
        nvert = len(m0.vertices)
        for _ in range(6):
            for v in range(nvert):
                for scale in (0.3 * gap, 0.02 * gap, 1e-6 * gap):
                    ux, uy = rng.standard_normal(2).tolist()
                    move_and_check(state, m0, gap, rho, tri_area,
                                   v, state.xs[v] + scale * ux, state.ys[v] + scale * uy)

    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_kept_arrays_after_each_accepted_move(self, N, M, seed):
        state, (m0, gap, rho, tri_area) = descent_for(N, M, 2.0)
        rng = np.random.default_rng(seed)
        for _ in range(150):
            v = int(rng.integers(len(m0.vertices)))
            ux, uy = rng.standard_normal(2).tolist()
            scale = 0.5 * gap * float(rng.random())
            if state.move(v, state.xs[v] + scale * ux, state.ys[v] + scale * uy):
                assert_state_matches_full(state, m0, gap, rho, tri_area)
        assert_state_matches_full(state, m0, gap, rho, tri_area)

    @pytest.mark.parametrize("N, M, L, moved, error", [
        (1, 1, 0.5, (), "exceeds the Lipschitz cap L=0.5"),
        (2, 1, 1.0 - 2 ** -52, (), "exceeds the Lipschitz cap L=0.9999999999999998"),
        # vertex 9, the top right corner, two gaps right: its cell stretched threefold
        (4, 1, 2.0, (9, 2.0, 0.0), "exceeds the Lipschitz cap L=2.0"),
        # vertex 4, the middle of the top edge, far below the bottom row
        (2, 1, 2.0, (4, 0.0, -10.0), "folds a triangle"),
    ], ids=["identity-L0.5", "identity-L1-ulp", "far-corner-L2", "folded"])
    def test_start_above_the_cap_or_folded_refused(self, N, M, L, moved, error):
        """No move can leave a start whose objective would be +inf, so the
        descent refuses it, naming the largest singular value and the cap."""
        _, (m0, gap, rho, _) = descent_for(N, M, 2.0)
        verts = m0.vertices.copy()
        if moved:
            v, sx, y = moved
            verts[v] += (sx * gap, y)
        start = PLMap(m0.domain, m0.nx, m0.ny, verts)
        dets, smax = _jacobians(start)
        if error.startswith("exceeds"):
            assert (dets > 0).all() and smax.max() > L
            error = f"largest singular value {float(smax.max())!r} {error}"
        with pytest.raises(ValueError, match=re.escape(error)):
            _Descent(start, rho, L)

    def test_orientation_flip_rejected(self):
        state, (m0, gap, rho, tri_area) = descent_for(2, 1, 2.0)
        v = 4                        # vertex (1, 1): the middle of the top edge
        before = (state.vertices(), state.obj)
        # push the vertex far below the bottom row: flips its triangles
        assert not state.move(v, state.xs[v], state.ys[v] - 10.0)
        assert np.array_equal(state.vertices(), before[0])
        assert state.obj == before[1]
        assert_state_matches_full(state, m0, gap, rho, tri_area)


def assert_summaries_match(state):
    """The screen's floats are those of the kept arrays."""
    assert state.psum == float(state.pen.sum())
    assert state.rmax == max(state.ratiosl)
    assert state.penl == state.pen.tolist()


def descended(N, M, seed, steps=300):
    """A state some random moves away from the identity, so that the
    marked pairs no longer tie at one ratio."""
    state, setup = descent_for(N, M, 2.0)
    rng = np.random.default_rng(seed)
    gap = setup[1]
    for _ in range(steps):
        v = int(rng.integers(len(setup[0].vertices)))
        ux, uy = rng.standard_normal(2).tolist()
        scale = 0.5 * gap * float(rng.random())
        state.move(v, state.xs[v] + scale * ux, state.ys[v] + scale * uy)
    assert state.obj < np.inf
    return state, setup


def vertex_class(v, nx, ny):
    j, i = divmod(v, nx + 1)
    on_x, on_y = i in (0, nx), j in (0, ny)
    return "corner" if on_x and on_y else "edge" if on_x or on_y else "interior"


_exact = _Descent._exact


def ulps_away(x, k, toward):
    for _ in range(k):
        x = math.nextafter(x, toward)
    return x


class TestVertexTable:
    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (1, 3), (4, 2), (6, 3)])
    def test_entries_are_the_grid_triangles_and_pairs(self, nx, ny):
        tris = identity_map(make_checkerboard(1, 1.0).domain, nx, ny).triangles()
        table = _vertex_table(nx, ny)
        assert len(table) == (nx + 1) * (ny + 1)
        for v, (entries, pairs) in enumerate(table):
            assert sorted(t for t, *_ in entries) == np.flatnonzero((tris == v).any(axis=1)).tolist()
            for t, q00, q11, third, lower in entries:
                # lower (q00, q10, q11), upper (q00, q11, q01)
                want = (q00, third, q11) if lower else (q00, q11, third)
                assert tuple(tris[t]) == want
                assert lower == (t % 2 == 0)
            j, i = divmod(v, nx + 1)
            assert pairs == tuple((j * nx + e, j * (nx + 1) + e) for e in (i - 1, i) if 0 <= e < nx)


class TestRejectionScreen:
    """Moves of a few ulps, and a move to the vertex's own position, change
    the objective by rounding alone, inside the screen's margin, so the
    exact path decides them; the decision and the kept state must still be
    those of a full recomputation."""

    @pytest.mark.parametrize("kind", ["corner", "edge", "interior"])
    @pytest.mark.parametrize("N,M,seed", [(2, 2, 0), (2, 2, 1), (3, 2, 2)])
    def test_moves_of_a_few_ulps(self, monkeypatch, kind, N, M, seed):
        state, (m0, gap, rho, tri_area) = descended(N, M, seed)
        exact = []
        monkeypatch.setattr(_Descent, "_exact",
                            lambda self, *args: exact.append(1) or _exact(self, *args))
        verts = [v for v in range(len(m0.vertices)) if vertex_class(v, m0.nx, m0.ny) == kind]
        moves = 0
        for v in verts:
            for k in range(1, 5):
                for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)):
                    px = ulps_away(state.xs[v], k * abs(sx), sx * np.inf)
                    py = ulps_away(state.ys[v], k * abs(sy), sy * np.inf)
                    move_and_check(state, m0, gap, rho, tri_area, v, px, py)
                    assert_summaries_match(state)
                    moves += 1
        # nearly every such move is inside the margin
        assert 10 * len(exact) >= 9 * moves

    @pytest.mark.parametrize("kind", ["corner", "edge", "interior"])
    def test_move_to_the_own_position_is_rejected(self, kind):
        state, (m0, gap, rho, tri_area) = descended(3, 2, 5)
        for v in range(len(m0.vertices)):
            if vertex_class(v, m0.nx, m0.ny) == kind:
                before = state.obj
                assert not move_and_check(state, m0, gap, rho, tri_area,
                                          v, state.xs[v], state.ys[v])
                assert state.obj == before
                assert_summaries_match(state)

    def test_moves_off_the_maximum_pair(self):
        """Shrinking a pair at the ratio maximum, alone there or tied with
        the pair beside it, lowers the maximum only when no kept pair
        holds it."""
        for seed in range(4):
            state, (m0, gap, rho, tri_area) = descended(2, 1, seed, steps=100)
            for _ in range(20):
                e = int(np.argmax(state.ratiosl))
                j, i = divmod(e, m0.nx)
                right = j * (m0.nx + 1) + i + 1   # the pair's right end
                toward = state.xs[right - 1]
                for k in (1, 2, 4):
                    move_and_check(state, m0, gap, rho, tri_area, right,
                                   ulps_away(state.xs[right], k, toward), state.ys[right])
                    assert_summaries_match(state)
                move_and_check(state, m0, gap, rho, tri_area, right,
                               state.xs[right] - 1e-4 * gap, state.ys[right])
                assert_summaries_match(state)

    @pytest.mark.parametrize("N,M", [(1, 2), (2, 1), (2, 2), (3, 1)])
    def test_ties_at_the_maximum(self, N, M):
        """From the identity, where pairs tie at the ratio maximum: moves
        along the pairs, which shrink one of the vertex's pairs and stretch
        the other, and across them, which keep both near the maximum."""
        state, (m0, gap, rho, tri_area) = descent_for(N, M, 2.0)
        assert state.ratiosl.count(state.rmax) > 1
        for _ in range(2):
            for v in range(len(m0.vertices)):
                for toward in (-np.inf, np.inf):
                    for k in (1, 2, 3):
                        for px, py in ((ulps_away(state.xs[v], k, toward), state.ys[v]),
                                       (state.xs[v], ulps_away(state.ys[v], k, toward))):
                            move_and_check(state, m0, gap, rho, tri_area, v, px, py)
                            assert_summaries_match(state)
                    for scale in (1e-9, 1e-6):
                        step = math.copysign(scale * gap, toward)
                        for px, py in ((state.xs[v] + step, state.ys[v]),
                                       (state.xs[v], state.ys[v] + step)):
                            move_and_check(state, m0, gap, rho, tri_area, v, px, py)
                            assert_summaries_match(state)

    def test_hypot_lower_factor(self):
        """The screen's ratio bound: math.hypot times _HYPOT_LO never
        exceeds np.hypot."""
        rng = np.random.default_rng(0)
        n = 20000
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 3, n)
        b = a * rng.uniform(-1, 1, n) * 10.0 ** rng.uniform(-10, 0, n)
        lo = np.array([math.hypot(x, y) * _HYPOT_LO for x, y in zip(a.tolist(), b.tolist())])
        assert (lo <= np.hypot(a, b)).all()


class TestDeskLimit:
    @pytest.mark.parametrize("seed", [5, 25])
    def test_search_matches_full_recomputation_at_n16_m8(self, seed):
        """N=16, M=8: 2,048 triangles, the largest the search takes, where
        the screen's margin is loosest."""
        field = make_checkerboard(16, 1.0)
        consts = toy_constants(2.0, 1.0, N=16, M=8)
        res = search_min_stretch(field, consts, 300, seed)
        trace, verts = oracle_search(field, consts, 300, seed)
        assert len(trace) > 1
        assert res.trace == tuple(trace)
        assert np.array_equal(res.plmap.vertices, verts)


# ---------------------------------------------------------------------------
# exact and greedy distortion

HEXAGON = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
LINE = [(float(k), 0.0) for k in range(6)]
SYMMETRIC = [
    (SQUARE, SQUARE),
    (SQUARE, [(2 * x + 1, 2 * y) for x, y in SQUARE]),
    (SQUARE, [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0)]),
    (HEXAGON, HEXAGON),
    (HEXAGON, [(y, x) for x, y in HEXAGON]),
    (HEXAGON, LINE),
    (LINE, LINE),
    (LINE, LINE[::-1]),
    (LINE[:5], [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0), (4.0, 0.0)]),
]

@st.composite
def point_pair(draw, max_size=7):
    """Two point sets of equal size on a small integer grid (many equal
    distances, so many tied bijections), optionally scaled."""
    X = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                      min_size=2, max_size=max_size, unique=True))
    Y = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                      min_size=len(X), max_size=len(X), unique=True))
    s = draw(st.sampled_from([1.0, 0.1, 3.7]))
    return np.array(X, float), s * np.array(Y, float)


class TestPairDistortion:
    @pytest.mark.parametrize("X,Y", SYMMETRIC)
    def test_symmetric_sets(self, X, Y):
        assert same_result(pair_distortion(X, Y), oracle_pair_distortion(X, Y))

    @given(point_pair())
    @settings(max_examples=80, deadline=None)
    def test_drawn_sets(self, XY):
        X, Y = XY
        assert same_result(pair_distortion(X, Y), oracle_pair_distortion(X, Y))

    def test_eight_points(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 5, (8, 2)).astype(float)
        while len(set(map(tuple, X))) < 8:
            X = rng.integers(0, 5, (8, 2)).astype(float)
        Y = X[::-1] * 2.0 + 1.0
        assert same_result(pair_distortion(X, Y), oracle_pair_distortion(X, Y))

    @pytest.mark.parametrize("rows", range(1, 25))
    def test_ties_across_batches(self, monkeypatch, rows):
        """The square onto itself ties at distortion 1 for its 8 symmetries,
        spread over the 24 permutations; every batch size keeps the first
        one in lexicographic order."""
        monkeypatch.setattr(distortion, "_CHUNK", 6 * rows)
        want = oracle_pair_distortion(SQUARE, SQUARE)
        assert same_result(pair_distortion(SQUARE, SQUARE), want)
        # relabelled so that the first minimum is not the first permutation
        Y = [SQUARE[k] for k in (2, 0, 3, 1)]
        assert same_result(pair_distortion(SQUARE, Y), oracle_pair_distortion(SQUARE, Y))

    def test_batches_stay_bounded_at_eight_points(self, monkeypatch):
        shapes = []
        evaluate = _Pairs.evaluate

        def spy(self, S):
            shapes.append(S.shape)
            return evaluate(self, S)

        monkeypatch.setattr(_Pairs, "evaluate", spy)
        X = [(float(k), float(k * k % 5)) for k in range(8)]
        Y = [(float(k % 3), float(k)) for k in range(8)]
        pair_distortion(X, Y)
        assert sum(r for r, _ in shapes) == math.factorial(8)
        assert all(r * 28 <= _CHUNK for r, _ in shapes)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pair_distortion([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], SQUARE[:3])
        with pytest.raises(ValueError, match="duplicate"):
            greedy_distortion(SQUARE[:3], [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)])


class TestGreedyDistortion:
    @pytest.mark.parametrize("X,Y", SYMMETRIC)
    @pytest.mark.parametrize("restarts", [0, 1, 4])
    def test_symmetric_sets(self, X, Y, restarts):
        got = greedy_distortion(X, Y, restarts=restarts, seed=2)
        assert same_result(got, oracle_greedy(X, Y, restarts, 2))

    @given(point_pair(max_size=12), st.integers(0, 4), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_drawn_sets(self, XY, restarts, seed):
        X, Y = XY
        got = greedy_distortion(X, Y, restarts=restarts, seed=seed)
        assert same_result(got, oracle_greedy(X, Y, restarts, seed))

    @given(st.integers(2, 20), st.integers(0, 2 ** 31 - 1), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_two_swap_in_batches(self, n, seed, chunk):
        """One swap row evaluated in batches of any size, down to one swap."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 10, (n, 2))
        Y = np.round(rng.uniform(0, 4, (n, 2)), 1)
        if len(set(map(tuple, Y))) < n:
            Y = Y + np.arange(n)[:, None] * 1e-3
        sigma = rng.permutation(n)
        DX, DY = _dist_matrix(X), _dist_matrix(Y)
        iu, ju = np.triu_indices(n, k=1)
        want = oracle_two_swap(DX, DY, sigma.copy(), iu, ju)
        distortion._CHUNK, saved = chunk, distortion._CHUNK
        try:
            got = _two_swap(_Pairs(X, Y), sigma.copy())
        finally:
            distortion._CHUNK = saved
        assert np.array_equal(got, want)

    @given(st.data(), st.one_of(st.integers(1, 60), st.integers(1, 1 << 14)))
    @settings(max_examples=60, deadline=None)
    def test_two_swap_on_ties(self, data, chunk):
        """Integer points tie many pairs at the largest and at the smallest
        ratio, so the extremal pairs whose ends are screened are picked
        among ties; in batches of any size, down to one swap."""
        n = data.draw(st.integers(2, 40))
        cell = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
        X, Y = (np.array(data.draw(st.lists(cell, min_size=n, max_size=n, unique=True)), float)
                for _ in range(2))
        sigma = np.array(data.draw(st.permutations(range(n))))
        DX, DY = _dist_matrix(X), _dist_matrix(Y)
        iu, ju = np.triu_indices(n, k=1)
        want = oracle_two_swap(DX, DY, sigma.copy(), iu, ju)
        distortion._CHUNK, saved = chunk, distortion._CHUNK
        try:
            got = _two_swap(_Pairs(X, Y), sigma.copy())
        finally:
            distortion._CHUNK = saved
        assert np.array_equal(got, want)

    def test_a_pass_evaluates_only_the_swaps_touching_extremal_pairs(self, monkeypatch):
        """From a local minimum, one pass takes no swap and evaluates at
        most the 4n - 10 swaps that move an end of the two extremal pairs,
        not all n(n - 1)/2."""
        n = 64
        rng = np.random.default_rng(3)
        X, Y = rng.uniform(0, 10, (n, 2)), rng.uniform(0, 10, (n, 2))
        pairs = _Pairs(X, Y)
        sigma = _two_swap(pairs, _nn_matching(X, Y, np.arange(n)))
        rows = []
        evaluate = _Pairs.evaluate

        def spy(self, S):
            rows.append(len(S))
            return evaluate(self, S)

        monkeypatch.setattr(_Pairs, "evaluate", spy)
        assert np.array_equal(_two_swap(pairs, sigma.copy()), sigma)
        # the first row is the starting sigma's own distortion
        assert rows[0] == 1 and 0 < sum(rows[1:]) <= 4 * n - 10

    def test_thirty_three_points(self):
        X = [((k * 37) % 101 / 10, (k * 53) % 103 / 10) for k in range(33)]
        Y = [((k * 41) % 97 / 9, (k * 29) % 89 / 11) for k in range(33)]
        assert same_result(greedy_distortion(X, Y, restarts=3, seed=5),
                           oracle_greedy(X, Y, 3, 5))


class TestInputs:
    @pytest.mark.parametrize("bad,name", [
        ([(0.0, 0.0), (1.0, math.nan)], "X"),
        ([(0.0, 0.0), (math.inf, 1.0)], "X"),
        ([0.0, 1.0], "X"),
        ([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)], "X"),
    ])
    @pytest.mark.parametrize("func", [pair_distortion, greedy_distortion])
    def test_bad_point_sets_rejected(self, func, bad, name):
        good = [(0.0, 0.0), (1.0, 0.0)]
        with pytest.raises(ValueError, match=f"point set {name}"):
            func(bad, good)
        with pytest.raises(ValueError, match="point set Y"):
            func(good, bad)
