"""The net's window queries against their exhaustive oracles.

check_covering prunes the 1/64 sample grid by branch and bound, and
Net.points_in_window enumerates explicit points from the counts of the
cells the window meets.  Both must return exactly what the full scans
below return.  The exact covering radius, from the Voronoi diagram of the
net near the window, brackets check_covering from both sides.  The former
branch-and-bound loop, which bounded a block by its centre's distance plus
the block's radius, is kept below as an oracle for the farthest-corner
bound, and the former explicit-point enumerator, which stacked one array
per cell, as an oracle for the in-place fill.  scipy's cKDTree is the
oracle for the bucket index both window checks query."""

import contextlib
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import Voronoi, cKDTree

from bknet import (
    DensityField,
    Net,
    Rect,
    UNIT_SQUARE,
    build_net,
    check_covering,
    check_separation,
    constant_field,
    make_plan,
    netbuild,
)

TWO_TONE = DensityField(UNIT_SQUARE, 1.0, ((Rect(0.5, 0.0, 1.0, 1.0), 2.0),))

PLANS = {
    "lattice": lambda: make_plan(constant_field(1.0), 0),
    "two-tone-K2": lambda: make_plan(TWO_TONE, 2),
    "two-tone-K3": lambda: make_plan(TWO_TONE, 3),
    "constant-4-K1": lambda: make_plan(constant_field(4.0), 1),
}


@functools.cache
def net(name):
    return build_net(PLANS[name]())


def covering_by_full_sweep(net, window):
    """check_covering as an exhaustive sweep: every sample of the 1/64
    grid is queried, in chunks of about 2M."""
    step = 1.0 / 64.0
    radius = 2.0 * max(1.0, net.max_cell_spacing) + 2.0
    big = Rect(window.x0 - radius, window.y0 - radius,
               window.x1 + radius, window.y1 + radius)
    pts, _ = net.points_in_window(big)
    tree = cKDTree(pts)
    xs = np.arange(window.x0, window.x1 + step / 2, step)
    ys = np.arange(window.y0, window.y1 + step / 2, step)
    worst = 0.0
    chunk = max(1, int(2_000_000 / max(1, len(ys))))
    for start in range(0, len(xs), chunk):
        gx, gy = np.meshgrid(xs[start:start + chunk], ys, indexing="ij")
        q = np.column_stack([gx.ravel(), gy.ravel()])
        d, _ = tree.query(q, k=1)
        worst = max(worst, float(d.max()))
    return worst


def covering_by_centre_bound(net, window):
    """(value, samples queried) of check_covering's former loop over the same
    candidate set: a block is kept while d + r, d its centre sample's
    distance to the net and r its farthest sample from that centre, times
    1 + _SLACK reaches the largest distance seen so far."""
    pts, _ = netbuild._near(net, window)
    tree = cKDTree(pts)
    step = 1.0 / 64.0
    xs = np.arange(window.x0, window.x1 + step / 2, step)
    ys = np.arange(window.y0, window.y1 + step / 2, step)
    gi, gj = np.meshgrid(np.arange(0, len(xs), netbuild._BLOCK),
                         np.arange(0, len(ys), netbuild._BLOCK), indexing="ij")
    i0, j0 = gi.ravel(), gj.ravel()
    i1 = np.minimum(i0 + netbuild._BLOCK, len(xs))
    j1 = np.minimum(j0 + netbuild._BLOCK, len(ys))
    worst, queried = 0.0, 0
    while len(i0):
        ri, rj = (i0 + i1) // 2, (j0 + j1) // 2
        d, _ = tree.query(np.column_stack([xs[ri], ys[rj]]), k=1)
        queried += len(ri)
        worst = max(worst, float(d.max()))
        r = np.hypot(np.maximum(xs[ri] - xs[i0], xs[i1 - 1] - xs[ri]),
                     np.maximum(ys[rj] - ys[j0], ys[j1 - 1] - ys[rj]))
        live = (r > 0) & ((d + r) * (1.0 + netbuild._SLACK) >= worst)
        i0, i1, j0, j1 = i0[live], i1[live], j0[live], j1[live]
        im, jm = (i0 + i1 + 1) // 2, (j0 + j1 + 1) // 2
        i0, i1, j0, j1 = (np.concatenate([i0, i0, im, im]), np.concatenate([im, im, i1, i1]),
                          np.concatenate([j0, jm, j0, jm]), np.concatenate([jm, j1, jm, j1]))
        keep = (i0 < i1) & (j0 < j1)
        i0, i1, j0, j1 = i0[keep], i1[keep], j0[keep], j1[keep]
    return worst, queried


class CountingGrid(netbuild._Grid):
    """A netbuild._Grid that counts its builds and the points it is queried
    at, and records the size of each query."""
    built = 0
    queried = 0
    batches = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        CountingGrid.built += 1

    def nearest(self, x, y):
        CountingGrid.queried += len(x)
        CountingGrid.batches.append(len(x))
        return super().nearest(x, y)

    def nearest_other(self, i):
        CountingGrid.queried += len(i)
        CountingGrid.batches.append(len(i))
        return super().nearest_other(i)


@contextlib.contextmanager
def counting_grids():
    """netbuild builds CountingGrids inside the block, with both counts at 0
    and no batch recorded."""
    CountingGrid.built = CountingGrid.queried = 0
    CountingGrid.batches = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netbuild, "_Grid", CountingGrid)
        yield CountingGrid


def fresh(net):
    """The same net as a new object: no index, memo or cached value yet."""
    return dataclasses.replace(net)


def covering_exact(net, window):
    """The covering radius of the window: the largest distance from a point
    of the window to the net, over the candidates points_in_window gives
    for check_covering's former inflation 2 max(1, s) + 2.  Restricted to a
    Voronoi cell, the distance to its site is convex, so the maximum lies
    at a Voronoi vertex in the window, where a ridge crosses a window edge,
    or at a window corner."""
    radius = 2.0 * max(1.0, net.max_cell_spacing) + 2.0
    pts, _ = net.points_in_window(Rect(window.x0 - radius, window.y0 - radius,
                                       window.x1 + radius, window.y1 + radius))
    vor = Voronoi(pts)
    v = vor.vertices
    ridges = np.array(vor.ridge_vertices)
    finite = (ridges >= 0).all(axis=1)
    # an unbounded ridge runs from its vertex away from the points' centroid
    center = pts.mean(axis=0)
    for (p, q), ends in zip(vor.ridge_points[~finite], ridges[~finite]):
        normal = np.array([pts[p, 1] - pts[q, 1], pts[q, 0] - pts[p, 0]])
        normal *= np.sign(np.dot((pts[p] + pts[q]) / 2 - center, normal))
        assert not ray_meets(v[ends.max()], normal, window)
    cand = [np.array([[window.x0, window.y0], [window.x0, window.y1],
                      [window.x1, window.y0], [window.x1, window.y1]]),
            v[(v[:, 0] >= window.x0) & (v[:, 0] <= window.x1)
              & (v[:, 1] >= window.y0) & (v[:, 1] <= window.y1)]]
    a, b = v[ridges[finite, 0]], v[ridges[finite, 1]]
    for axis, edges, (lo, hi) in ((0, (window.x0, window.x1), (window.y0, window.y1)),
                                  (1, (window.y0, window.y1), (window.x0, window.x1))):
        for c in edges:
            da, db = a[:, axis] - c, b[:, axis] - c
            cross = (da * db <= 0) & (da != db)
            t = da[cross] / (da[cross] - db[cross])
            other = a[cross, 1 - axis] + t * (b[cross, 1 - axis] - a[cross, 1 - axis])
            other = other[(other >= lo) & (other <= hi)]
            cand.append(np.column_stack([np.full(len(other), c), other])[:, [axis, 1 - axis]])
    d, _ = cKDTree(pts).query(np.vstack(cand))
    return float(d.max())


def ray_meets(origin, direction, window):
    """Whether the ray origin + t direction, t >= 0, meets the closed window."""
    t0, t1 = 0.0, math.inf
    for o, d, lo, hi in ((origin[0], direction[0], window.x0, window.x1),
                         (origin[1], direction[1], window.y0, window.y1)):
        if d == 0:
            if not lo <= o <= hi:
                return False
        else:
            a, b = sorted(((lo - o) / d, (hi - o) / d))
            t0, t1 = max(t0, a), min(t1, b)
    return t0 <= t1


def sample_span(window):
    """The rectangle check_covering's 1/64 sample grid spans.  Its last
    column or row may lie past x1 or y1, by under half a step."""
    step = 1.0 / 64.0
    xs = np.arange(window.x0, window.x1 + step / 2, step)
    ys = np.arange(window.y0, window.y1 + step / 2, step)
    return Rect(window.x0, window.y0, max(window.x1, float(xs[-1])),
                max(window.y1, float(ys[-1])))


def points_by_full_scan(net, window):
    """points_in_window as a mask over every explicit point."""
    inside = ((net.points[:, 0] >= window.x0) & (net.points[:, 0] <= window.x1)
              & (net.points[:, 1] >= window.y0) & (net.points[:, 1] <= window.y1))
    pts = [net.points[inside]]
    tags = [net.tags[inside]]
    xs = np.arange(math.floor(window.x0), math.ceil(window.x1))
    ys = np.arange(math.floor(window.y0), math.ceil(window.y1))
    if len(xs) and len(ys):
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        cx = gx.ravel() + 0.5
        cy = gy.ravel() + 0.5
        keep = (cx >= window.x0) & (cx <= window.x1) & (cy >= window.y0) & (cy <= window.y1)
        for e in net.plan.schedule:
            s = e.square
            keep &= ~((gx.ravel() >= s.x0) & (gx.ravel() + 1 <= s.x1)
                      & (gy.ravel() >= s.y0) & (gy.ravel() + 1 <= s.y1))
        bg = np.column_stack([cx[keep], cy[keep]])
        pts.append(bg)
        tags.append(np.zeros(len(bg), dtype=int))
    return np.vstack(pts), np.concatenate(tags)


def explicit_points_by_stacking(plan, counts, window):
    """netbuild._explicit_points as it was before the in-place fill: one
    array pair per cell the window reaches, stacked at the end."""
    points, tags = [np.zeros((0, 2))], [np.zeros(0, dtype=int)]
    for idx, (e, n_arr) in enumerate(zip(plan.schedule, counts), start=1):
        cell = e.side / e.m
        for i in netbuild._reach(window.x0, window.x1, e.square.x0, cell, e.m):
            for j in netbuild._reach(window.y0, window.y1, e.square.y0, cell, e.m):
                n = int(n_arr[i, j])
                step = cell / n
                tx0, ty0 = e.square.x0 + i * cell, e.square.y0 + j * cell
                a = netbuild._reach(window.x0, window.x1, tx0, step, n)
                b = netbuild._reach(window.y0, window.y1, ty0, step, n)
                if a and b:
                    gx = np.repeat(tx0 + step * (np.arange(a.start, a.stop) + 0.5), len(b))
                    gy = np.tile(ty0 + step * (np.arange(b.start, b.stop) + 0.5), len(a))
                    keep = (gx >= window.x0) & (gx <= window.x1) & (gy >= window.y0) & (gy <= window.y1)
                    points.append(np.column_stack([gx[keep], gy[keep]]))
                    tags.append(np.full(int(keep.sum()), idx, dtype=int))
    return np.vstack(points), np.concatenate(tags)


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert np.array_equal(g, w)


# under 1/64 wide gives one or two samples across
sides = st.one_of(st.floats(0.003, 0.0155), st.floats(0.003, 6.0))


@st.composite
def windows(draw, name):
    """Windows around an anchor: a square edge, a lattice line or any
    point; the y anchor is another such value or near the diagonal."""
    edges = [v for e in net(name).plan.schedule for v in (e.square.x0, e.square.x1)]
    hi = max(edges, default=10.0) + 3.0
    anchors = st.one_of(st.sampled_from(edges or [0.0]),
                        st.integers(-3, int(hi)).map(float),
                        st.floats(-3.0, hi))
    w, h = draw(sides), draw(sides)
    ax = draw(anchors)
    ay = draw(st.one_of(anchors, st.floats(-2.0, 2.0).map(lambda d: ax + d)))
    x0 = ax - draw(st.floats(0.0, 1.0)) * w
    y0 = ay - draw(st.floats(0.0, 1.0)) * h
    return Rect(x0, y0, x0 + w, y0 + h)


@st.composite
def edge_windows(draw, name):
    """Windows whose edges lie exactly on cell boundaries (square edges
    among them) or on coordinates of explicit points, or 1e-9 beside one;
    the window is 1e-9 thin on an axis whose two edges coincide."""
    n = net(name)
    cuts = [v for e in n.plan.schedule for i in range(e.m + 1)
            for v in (e.square.x0 + i * (e.side / e.m), e.square.y0 + i * (e.side / e.m))]
    grid = np.unique(n.points).tolist()
    on = st.sampled_from(cuts) | st.sampled_from(grid)
    nudge = st.sampled_from([0.0, 0.0, -1e-9, 1e-9])

    def span():
        lo, hi = sorted((draw(on) + draw(nudge), draw(on) + draw(nudge)))
        return (lo, lo + 1e-9) if hi <= lo else (lo, hi)

    (x0, x1), (y0, y1) = span(), span()
    return Rect(x0, y0, x1, y1)


@st.composite
def cell_free_windows(draw, name):
    """Windows that meet no cell: left of or below the first square, or
    inside the unit gap between two squares (any height)."""
    sched = net(name).plan.schedule
    w, h = draw(sides), draw(sides)
    gaps = [(a.square.x1, b.square.x0) for a, b in zip(sched, sched[1:])]
    if gaps and draw(st.booleans()):
        lo, hi = draw(st.sampled_from(gaps))
        x0 = draw(st.floats(lo + 1e-9, lo + 0.5))
        x1 = draw(st.floats(x0 + 1e-9, hi - 1e-9))
        y0 = draw(st.floats(-5.0, hi))
        return Rect(x0, y0, x1, y0 + h)
    x0 = draw(st.floats(-10.0, 10.0))
    first = sched[0].square.x0 if sched else 0.0
    if draw(st.booleans()):
        x0 = min(x0, first - w - 1e-9)
    else:
        y0 = min(draw(st.floats(-10.0, 10.0)), first - h - 1e-9)
        return Rect(x0, y0, x0 + w, y0 + h)
    y0 = draw(st.floats(-10.0, 10.0))
    return Rect(x0, y0, x0 + w, y0 + h)


class TestCoveringOracle:
    @pytest.mark.parametrize("name", list(PLANS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_full_sweep(self, name, data):
        window = data.draw(windows(name))
        assert check_covering(net(name), window) == covering_by_full_sweep(net(name), window)

    @pytest.mark.parametrize("window", [
        Rect(0.1, 0.2, 0.105, 3.3),          # one sample across
        Rect(15.01, 15.3, 15.02, 19.7),      # two across, over square edges
        Rect(-0.7, -0.3, 1.3, 17.55),        # 129 x 1143 samples
        Rect(14.37, 14.11, 18.9, 18.33),     # squares 1 and 2 and the gap
    ])
    def test_fixed_windows(self, window):
        got = check_covering(net("two-tone-K3"), window)
        assert got == covering_by_full_sweep(net("two-tone-K3"), window)


class TestFarthestCornerBound:
    @staticmethod
    def check(n, window):
        want, want_queried = covering_by_centre_bound(n, window)
        with counting_grids() as grids:
            got = check_covering(fresh(n), window)
        assert got == want
        assert grids.queried <= want_queried

    @pytest.mark.parametrize("name", list(PLANS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_centre_bound_with_no_more_queries(self, name, data):
        self.check(net(name), data.draw(windows(name)))

    @pytest.mark.parametrize("window", [
        Rect(0.1, 0.2, 0.105, 3.3),
        Rect(15.01, 15.3, 15.02, 19.7),
        Rect(-0.7, -0.3, 1.3, 17.55),
        Rect(14.37, 14.11, 18.9, 18.33),
    ])
    def test_fixed_windows(self, window):
        self.check(net("two-tone-K3"), window)


class TestSharedCandidates:
    def test_both_checks_build_one_tree(self):
        n = fresh(net("two-tone-K3"))
        with counting_grids() as grids:
            check_separation(n, Rect(14.37, 14.11, 18.9, 18.33))
            check_covering(n, Rect(14.37, 14.11, 18.9, 18.33))
        assert grids.built == 1

    def test_interleaved_windows_match_fresh_calls(self):
        n = fresh(net("two-tone-K3"))
        a, b = Rect(14.37, 14.11, 18.9, 18.33), Rect(-0.7, -0.3, 1.3, 17.55)
        for window in (a, b, a, a, b):
            for query in (check_covering, check_separation):
                assert query(n, window) == query(fresh(n), window)

    def test_nets_queried_on_equal_windows_match_fresh_calls(self):
        nets = [fresh(net("two-tone-K2")), fresh(net("constant-4-K1"))]
        for n in nets + nets:
            window = Rect(3.9, 4.1, 7.3, 6.6)   # a new, equal Rect each time
            for query in (check_separation, check_covering):
                assert query(n, window) == query(fresh(n), window)


class TestQueryChunks:
    WINDOWS = [Rect(14.37, 14.11, 18.9, 18.33), Rect(-0.7, -0.3, 1.3, 17.55),
               Rect(3.0, 3.0, 15.0, 15.0)]

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_results_do_not_depend_on_the_chunk_size(self, chunk):
        n = net("two-tone-K3")
        want = [(check_separation(fresh(n), w), check_covering(fresh(n), w))
                for w in self.WINDOWS]
        pts, grid = netbuild._near(fresh(n), self.WINDOWS[0])
        every = np.arange(len(pts))
        want_nearest = grid.nearest(pts[:, 0] + 0.25, pts[:, 1] - 0.125)
        want_other = grid.nearest_other(every)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netbuild, "_CHUNK", chunk)
            got = [(check_separation(fresh(n), w), check_covering(fresh(n), w))
                   for w in self.WINDOWS]
            assert_same_arrays(grid.nearest(pts[:, 0] + 0.25, pts[:, 1] - 0.125), want_nearest)
            assert_same_arrays([grid.nearest_other(every)], [want_other])
        assert got == want

    def test_a_batch_is_one_query(self):
        # the unit lattice holds 128 x 256 centres in this window: many chunks
        n = fresh(net("lattice"))
        with counting_grids() as grids:
            assert check_separation(n, Rect(0.0, 0.0, 128.0, 256.0)) == 1.0
        assert grids.batches == [128 * 256]
        assert 128 * 256 > 4 * netbuild._CHUNK


@st.composite
def grid_cases(draw):
    """(points, reach): up to 40 points, some of them exact or near
    duplicates of others, and a reach of at least half the largest
    nearest-neighbour distance and 1/32 of the points' extent."""
    coord = st.floats(-50.0, 50.0, allow_nan=False)
    base = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    near = st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6])
    copies = [(x + draw(near), y + draw(near))
              for x, y in draw(st.lists(st.sampled_from(base), max_size=10))]
    pts = np.array(base + copies)
    if len(pts) == 1:
        pts = np.vstack([pts, pts + draw(st.floats(1e-9, 10.0))])
    d, _ = cKDTree(pts).query(pts, k=2)
    extent = float(np.ptp(pts, axis=0).max())
    reach = max(float(d[:, 1].max()) / 2.0, extent / 32.0, 1e-6)
    return pts, reach * draw(st.sampled_from([1.0, 1.0, 1.5, 4.0]))


class TestGridOracle:
    """The bucket index against cKDTree: distances bit for bit, and an
    index of a point at that distance, for queries whose nearest point lies
    within reach, on bucket edges among them."""

    @staticmethod
    def check_nearest(pts, grid, q):
        want, _ = cKDTree(pts).query(q, k=1)
        q, want = q[want <= grid.reach], want[want <= grid.reach]
        d, k = grid.nearest(q[:, 0], q[:, 1])
        assert np.array_equal(d, want)
        dx, dy = pts[k, 0] - q[:, 0], pts[k, 1] - q[:, 1]
        assert np.array_equal(np.sqrt(dx * dx + dy * dy), d)

    def test_a_query_exactly_reach_away_over_a_rounded_bucket_edge(self):
        # with buckets exactly reach wide, (q - lo) / reach rounds up to an
        # integer while (p - lo) / reach rounds down, so p's bucket is two
        # away from q's; the widened bucket keeps p in q's neighbourhood
        m, p, r = -4.492441793121074, 0.3647114972650627, 1.619051096795379
        q = p + r
        pts = np.array([[m, 0.0], [p, 0.0], [p + 2.5 * r, 0.0]])
        reach = q - p
        lo = m - 3.0 * reach
        assert math.floor((q - lo) / reach) - math.floor((p - lo) / reach) == 2
        grid = netbuild._Grid(pts, reach)
        self.check_nearest(pts, grid, np.array([[q, 0.0]]))
        assert grid.nearest(np.array([q]), np.array([0.0]))[1].tolist() == [1]

    @settings(max_examples=300, deadline=None)
    @given(case=grid_cases(), data=st.data())
    def test_nearest_other_matches_the_second_neighbour(self, case, data):
        pts, reach = case
        grid = netbuild._Grid(pts, reach)
        i = np.array(data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1)))
        d, _ = cKDTree(pts).query(pts[i], k=2)
        assert np.array_equal(grid.nearest_other(i), d[:, 1])

    @settings(max_examples=300, deadline=None)
    @given(case=grid_cases(), data=st.data())
    def test_nearest_matches_at_random_queries(self, case, data):
        pts, reach = case
        grid = netbuild._Grid(pts, reach)
        lo, hi = pts.min(axis=0) - reach, pts.max(axis=0) + reach
        q = np.array(data.draw(st.lists(
            st.tuples(st.floats(lo[0], hi[0]), st.floats(lo[1], hi[1])), min_size=1)))
        self.check_nearest(pts, grid, q)
        # the points themselves, and points a few ulps off them
        for t in (0.0, 1e-15, -1e-15):
            self.check_nearest(pts, grid, pts * [1 + t, 1 - t])

    @settings(max_examples=200, deadline=None)
    @given(case=grid_cases(), data=st.data())
    def test_nearest_matches_on_bucket_edges(self, case, data):
        pts, reach = case
        grid = netbuild._Grid(pts, reach)
        ex = grid._x0 + grid._w * np.arange(grid._nx + 1)
        ey = grid._y0 + grid._w * np.arange(grid._ny + 1)
        nudge = data.draw(st.sampled_from([0.0, 1e-12, -1e-12]))
        gx, gy = np.meshgrid(ex, ey, indexing="ij")
        self.check_nearest(pts, grid, np.column_stack([gx.ravel(), gy.ravel()]) + nudge)


class TestExactCovering:
    @staticmethod
    def check(n, window):
        got = check_covering(n, window)
        exact = covering_exact(n, window)
        # Voronoi vertices and samples are rounded to the coordinates' ulp
        tol = 8 * math.ulp(max(abs(window.x0), abs(window.x1),
                               abs(window.y0), abs(window.y1)) + 8.0)
        # the samples may lie past the window (see sample_span), so
        # check_covering can exceed the window's own exact radius
        assert got <= covering_exact(n, sample_span(window)) + tol
        # every window point is within half a step, per axis, of a sample
        assert exact <= got + math.sqrt(2) / 128 + tol
        # the bound behind the single candidate radius of the window checks
        assert exact <= n.max_cell_spacing / math.sqrt(2) + tol

    @pytest.mark.parametrize("name", list(PLANS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_brackets_check_covering(self, name, data):
        self.check(net(name), data.draw(windows(name)))

    @pytest.mark.parametrize("window", [
        Rect(0.1, 0.2, 0.105, 3.3),
        Rect(15.01, 15.3, 15.02, 19.7),
        Rect(-0.7, -0.3, 1.3, 17.55),
        Rect(14.37, 14.11, 18.9, 18.33),
    ])
    def test_fixed_windows(self, window):
        self.check(net("two-tone-K3"), window)


class TestPointsInWindowOracle:
    @pytest.mark.parametrize("name", list(PLANS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_full_scan(self, name, data):
        window = data.draw(windows(name))
        n = net(name)
        assert_same_arrays(n.points_in_window(window), points_by_full_scan(n, window))

    @pytest.mark.parametrize("name", ["two-tone-K2", "constant-4-K1"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_edges_through_points(self, name, data):
        # the bounding box of two explicit points: both lie on its closed
        # edges, so both must come back
        n = net(name)
        idx = st.integers(0, len(n.points) - 1)
        a, b = n.points[data.draw(idx)], n.points[data.draw(idx)]
        x0, y0 = min(a[0], b[0]), min(a[1], b[1])
        x1, y1 = max(a[0], b[0]), max(a[1], b[1])
        window = Rect(float(x0), float(y0),
                      float(x1) if x1 > x0 else x0 + 1.0, float(y1) if y1 > y0 else y0 + 1.0)
        got = n.points_in_window(window)
        assert_same_arrays(got, points_by_full_scan(n, window))
        for p in (a, b):
            assert (got[0] == p).all(axis=1).any()

    @pytest.mark.parametrize("name", ["two-tone-K2", "two-tone-K3", "constant-4-K1"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_edges_on_cell_boundaries_and_grid_lines(self, name, data):
        n = net(name)
        window = data.draw(edge_windows(name))
        assert_same_arrays(n.points_in_window(window), points_by_full_scan(n, window))

    @pytest.mark.parametrize("window", [
        Rect(-5.0, -5.0, -0.1, 30.0),     # left of every explicit point
        Rect(81.5, 0.0, 90.0, 85.0),      # right of every explicit point
        Rect(-5.0, -5.0, 0.0, 30.0),      # up to square 1's left edge
    ])
    def test_windows_beside_the_points(self, window):
        n = net("two-tone-K2")
        got = n.points_in_window(window)
        assert_same_arrays(got, points_by_full_scan(n, window))

    def test_empty_net(self):
        n = net("lattice")
        assert n.points.shape == (0, 2)
        for window in (Rect(0, 0, 4, 4), Rect(-2.5, 0.5, 3.5, 0.5 + 1e-9)):
            assert_same_arrays(n.points_in_window(window), points_by_full_scan(n, window))

    def test_full_fill_is_built_once_on_first_read(self):
        assert [f.name for f in dataclasses.fields(Net)] == ["plan", "counts", "integrals"]
        n = build_net(make_plan(TWO_TONE, 2))
        assert "_fill" not in vars(n)      # build_net leaves it to the first read
        for window in (Rect(0.0, 0.0, 3.0, 3.0), Rect(10.0, 10.0, 20.0, 20.0),
                       Rect(30.0, 40.0, 80.0, 41.0)):
            # the oracle reads the points of another net built from the same plan
            assert_same_arrays(n.points_in_window(window),
                               points_by_full_scan(net("two-tone-K2"), window))
            check_separation(n, window)
            check_covering(n, window)
        assert "_fill" not in vars(n)
        enumerate_points = netbuild._explicit_points
        enumerated = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netbuild, "_explicit_points",
                       lambda *args: enumerated.append(args) or enumerate_points(*args))
            points = n.points
            assert len(enumerated) == 1 and "_fill" in vars(n)
            tags = n.tags
            assert len(enumerated) == 1
        assert n.points is points and n.tags is tags
        assert_same_arrays((points, tags), (net("two-tone-K2").points, net("two-tone-K2").tags))
        with pytest.raises(AttributeError):
            n.points = points


class TestInPlaceFill:
    @pytest.mark.parametrize("name", list(PLANS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_the_stacking_enumerator(self, name, data):
        kinds = [windows(name), cell_free_windows(name)]
        if net(name).plan.schedule:   # edge_windows needs cell edges
            kinds.append(edge_windows(name))
        window = data.draw(st.one_of(kinds))
        spare = data.draw(st.integers(0, 5))
        n = net(name)
        pts, tags, k = netbuild._explicit_points(n.plan, n.counts, window, spare)
        assert len(pts) == len(tags) >= k + spare
        assert_same_arrays((pts[:k], tags[:k]),
                           explicit_points_by_stacking(n.plan, n.counts, window))

    @pytest.mark.parametrize("name", ["lattice", "two-tone-K3"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_windows_that_meet_no_cell(self, name, data):
        n = net(name)
        window = data.draw(cell_free_windows(name))
        _, _, k = netbuild._explicit_points(n.plan, n.counts, window)
        assert k == 0
        assert_same_arrays(n.points_in_window(window), points_by_full_scan(n, window))

    def test_first_read_peaks_near_the_final_arrays(self):
        n = build_net(make_plan(TWO_TONE, 4))   # 834,938 points, 20 MB
        tracemalloc.start()
        try:
            points, tags = n.points, n.tags
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 834_938
        assert peak <= 1.2 * (points.nbytes + tags.nbytes) + 2 ** 20


class TestNonFiniteWindow:
    @pytest.mark.parametrize("query", [
        lambda n, w: n.points_in_window(w),
        check_separation,
        check_covering,
    ], ids=["points_in_window", "check_separation", "check_covering"])
    @pytest.mark.parametrize("window", [Rect(0.0, 0.0, math.inf, 4.0),
                                        Rect(0.0, -math.inf, 4.0, 4.0)])
    def test_rejected_with_the_window_named(self, query, window):
        with pytest.raises(ValueError, match=r"window Rect\(.*inf.*non-finite"):
            query(net("two-tone-K2"), window)
