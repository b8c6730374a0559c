"""The net's window queries against their exhaustive oracles.

check_covering returns the covering radius of the closed window, from
per-lattice bounds over the lattice table and, where those do not settle
it, an exact arrangement of the few lattices near a region; the exact
radius from the Voronoi diagram of the net near the window is its oracle,
to a few ulps of the coordinates, and a sweep of a 1/64 sample grid
clipped to the window brackets it from both sides, by scipy's cKDTree
alone.  Net.points_in_window enumerates
explicit points from the same table, the cells the window meets and the
coordinates of each in the window, and must return exactly what the full
scan below returns; the former explicit-point enumerator, which stacked
one array per cell found cell by cell, is the oracle for the in-place
fill.  check_separation resolves every window point's neighbours on its
own lattice in closed form, and pairs only the lattices whose window
points reach their outer ring with the lattices near them, cells and
background rectangles alike; the full scan of every window point over the
candidate set with scipy's cKDTree is its oracle, and must agree exactly
on windows at cell seams, square edges and gaps.  The former classifier,
which placed each window point in a cell by its coordinates and marked
the ring points and the background centres near a square, is kept as the
oracle for the lattices that enter pairs."""

import contextlib
import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import Voronoi, cKDTree

from bknet import (
    DensityField,
    Net,
    Rect,
    UNIT_SQUARE,
    assemble_limit_density,
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


@functools.cache
def limit_net():
    """The benchmark's net: level K=4 of the depth-3 limit density (the
    squares `gen-density limit --depth 3` uses); its fourth square has
    64-wide cells."""
    squares = [(Rect(2.0 ** -(k + 1), 2.0 ** -(k + 1), 2.0 ** -k, 2.0 ** -k), k)
               for k in (1, 2, 3)]
    return build_net(make_plan(assemble_limit_density(1.0, squares), 4))


def covering_by_full_sweep(net, window):
    """The largest distance to the net over a sample grid of the closed
    window: every multiple of 1/64 from x0 below x1, and x1 (likewise in
    y), queried in chunks of about 2M.  Every window point lies within
    sqrt(2)/128 of a sample."""
    step = 1.0 / 64.0
    tree = cKDTree(candidates(net, window))
    xs = np.append(np.arange(window.x0, window.x1, step), window.x1)
    ys = np.append(np.arange(window.y0, window.y1, step), window.y1)
    xs, ys = xs[xs <= window.x1], ys[ys <= window.y1]
    worst = 0.0
    chunk = max(1, int(2_000_000 / len(ys)))
    for start in range(0, len(xs), chunk):
        gx, gy = np.meshgrid(xs[start:start + chunk], ys, indexing="ij")
        d, _ = tree.query(np.column_stack([gx.ravel(), gy.ravel()]), k=1)
        worst = max(worst, float(d.max()))
    return worst


def candidates(net, window):
    """The net points in the window inflated by 2 s, s =
    net.max_cell_spacing.  They hold every window point's nearest net point
    and every window net point's nearest neighbour: each point of the plane
    is within s/sqrt(2) of the net, and a Voronoi neighbour of a net point
    is within twice that."""
    r = 2.0 * net.max_cell_spacing
    return net.points_in_window(Rect(window.x0 - r, window.y0 - r,
                                     window.x1 + r, window.y1 + r))[0]


def separation_by_full_scan(net, window):
    """check_separation as a full scan: every window point's nearest other
    point, its second neighbour in cKDTree over the candidate set."""
    pts = candidates(net, window)
    inside = np.flatnonzero((pts[:, 0] >= window.x0) & (pts[:, 0] <= window.x1)
                            & (pts[:, 1] >= window.y0) & (pts[:, 1] <= window.y1))
    if len(inside) < 2:
        raise ValueError("window contains fewer than 2 points")
    d, _ = cKDTree(pts).query(pts[inside], k=2)
    return float(d[:, 1].min())


def near_square(net, x, y):
    """Mask of the points (x, y) nearer than 1 to a scheduled square along
    both axes."""
    near = np.zeros(len(x), dtype=bool)
    for e in net.plan.schedule:
        s = e.square
        near |= (x > s.x0 - 1) & (x < s.x1 + 1) & (y > s.y0 - 1) & (y < s.y1 + 1)
    return near


def ring_by_classifying(net, window):
    """check_separation's former scan set: the window points of the
    candidate set, each explicit one placed in a cell of its square by
    floor division of its coordinates and kept when it lies less than its
    spacing inside that cell (a point placed in the wrong cell lies outside
    it), each background centre kept when `near_square` marks it."""
    r = 2.0 * net.max_cell_spacing
    pts, tags = net.points_in_window(Rect(window.x0 - r, window.y0 - r,
                                          window.x1 + r, window.y1 + r))
    x, y = pts[:, 0], pts[:, 1]
    cells = net._cells
    out = near_square(net, x, y)
    e = np.flatnonzero(tags)
    if len(e):
        m = np.array([s.m for s in net.plan.schedule])
        cell = np.array([s.side / s.m for s in net.plan.schedule])
        base = np.cumsum(m * m) - m * m
        q, xe, ye = tags[e] - 1, x[e], y[e]
        i = np.clip(np.floor((xe - cells.box[q, 0]) / cell[q]), 0, m[q] - 1).astype(np.intp)
        j = np.clip(np.floor((ye - cells.box[q, 1]) / cell[q]), 0, m[q] - 1).astype(np.intp)
        row = base[q] + i * m[q] + j
        h = cells.step[row]
        out[e] = ((xe - cells.x0[row] < h) | (cells.x1[row] - xe < h)
                  | (ye - cells.y0[row] < h) | (cells.y1[row] - ye < h))
    inside = (x >= window.x0) & (x <= window.x1) & (y >= window.y0) & (y <= window.y1)
    return pts[inside & out]


def as_sorted_complex(pts):
    """The points (x, y) as the sorted complex numbers x + iy."""
    return np.sort(pts[:, 0] + 1j * pts[:, 1])


@contextlib.contextmanager
def recording_pairs():
    """A list that collects, inside the block, the lattice pairs
    check_separation evaluates: per call the table's boxes and the arrays
    (a, b) of the pairs, a the lattice whose window points are measured."""
    calls = []
    pairs = netbuild._pair_least_sq

    def record(box, step, n, first, count, a, b, best):
        calls.append((box, a, b))
        return pairs(box, step, n, first, count, a, b, best)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netbuild, "_pair_least_sq", record)
        yield calls


@contextlib.contextmanager
def recording_arrangements():
    """A list that collects, inside the block, the rectangles (lo, hi)
    check_covering resolves by the exact arrangement."""
    calls = []
    arrangement = netbuild._arrangement_max

    def record(box, step, n, lo, hi, near, worst):
        calls.append((lo, hi))
        return arrangement(box, step, n, lo, hi, near, worst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netbuild, "_arrangement_max", record)
        yield calls


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


def reach(lo, hi, origin, step, n):
    """The a in [0, n) whose [origin + a step, origin + (a+1) step] may meet [lo, hi]."""
    return range(max(0, math.floor((lo - origin) / step) - 1),
                 min(n, math.floor((hi - origin) / step) + 2))


def explicit_points_by_stacking(plan, counts, window):
    """netbuild._explicit_points as it was before the in-place fill and the
    lattice table: one array pair per cell the window reaches, found cell by
    cell, stacked at the end."""
    points, tags = [np.zeros((0, 2))], [np.zeros(0, dtype=int)]
    for idx, (e, n_arr) in enumerate(zip(plan.schedule, counts), start=1):
        cell = e.side / e.m
        for i in reach(window.x0, window.x1, e.square.x0, cell, e.m):
            for j in reach(window.y0, window.y1, e.square.y0, cell, e.m):
                n = int(n_arr[i, j])
                step = cell / n
                tx0, ty0 = e.square.x0 + i * cell, e.square.y0 + j * cell
                a = reach(window.x0, window.x1, tx0, step, n)
                b = reach(window.y0, window.y1, ty0, step, n)
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


@st.composite
def seam_windows(draw, n):
    """Windows with an edge within one point spacing of a cell edge (square
    edges among them) or of a point of the unit gap between two squares;
    the other edges lie a side from it, or again near such a cut.  The unit
    lattice's cuts are its unit-square edges."""
    sched = n.plan.schedule
    cuts = (sorted({v for e in sched for v in netbuild._cell_edges(e)[0]})
            or [float(v) for v in range(-3, 12)])
    gaps = [st.floats(a.square.x1, b.square.x0) for a, b in zip(sched, sched[1:])]
    s = n.max_cell_spacing
    near = st.floats(-s, s)

    def span(a):
        v, w = a + draw(near), draw(sides)
        return (v, v + w) if draw(st.booleans()) else (v - w, v)

    ax = draw(st.one_of(st.sampled_from(cuts), *gaps))
    x0, x1 = span(ax)
    # the y edge near a cut of the same square, or near the diagonal
    ay = draw(st.sampled_from([c for c in cuts if abs(c - ax) <= 64.0] or [ax])
              | st.floats(-2.0, 2.0).map(lambda d: ax + d))
    y0, y1 = span(ay)
    return Rect(x0, y0, x1, y1)


# below 1 the density makes cells denser than the background lattice: a
# spacing of 1/2 on the left half of each square, 1 on the right
DENSE_TWO_TONE = DensityField(UNIT_SQUARE, 0.25, ((Rect(0.5, 0.0, 1.0, 1.0), 1.0),))

# squares off the integer grid, which NetPlan refuses: the background
# would keep the centres of the unit squares they only partly cover, on
# their edges (the first square) or inside them (the second)
OFF_GRID = (netbuild.ScheduleEntry(Rect(0.5, 0.5, 4.5, 4.5), 4, 2),
            netbuild.ScheduleEntry(Rect(6.25, 5.75, 22.25, 21.75), 16, 4))

# a hand-made plan on the integer grid, with float corners: squares off
# the diagonal, 2 apart in x and 1 in y, of the dense two-tone density
HAND_MADE = netbuild.NetPlan(DENSE_TWO_TONE, (
    netbuild.ScheduleEntry(Rect(1.0, 1.0, 5.0, 5.0), 4, 2),
    netbuild.ScheduleEntry(Rect(7.0, 6.0, 23.0, 22.0), 16, 4)))

# cells 1 wide of one point each
ONE_POINT = functools.cache(lambda: build_net(netbuild.NetPlan(constant_field(0.5), (
    netbuild.ScheduleEntry(Rect(0.0, 0.0, 4.0, 4.0), 4, 4),))))

SEAM_NETS = {**{name: functools.partial(net, name) for name in PLANS},
             "limit-K4": limit_net,
             "dense-two-tone-K3": functools.cache(lambda: build_net(make_plan(DENSE_TWO_TONE, 3))),
             "hand-made": functools.cache(lambda: build_net(HAND_MADE))}


class TestCoveringOracle:
    @staticmethod
    def check(n, window):
        got = check_covering(n, window)
        sweep = covering_by_full_sweep(n, window)
        tol = 8 * math.ulp(max(abs(window.x0), abs(window.x1),
                               abs(window.y0), abs(window.y1)) + 8.0)
        # every sample lies in the closed window
        assert sweep <= got + tol
        # every window point is within sqrt(2)/128 of a sample
        assert got <= sweep + math.sqrt(2) / 128 + tol

    @pytest.mark.parametrize("name", list(PLANS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_brackets_full_sweep(self, name, data):
        self.check(net(name), data.draw(windows(name)))

    @pytest.mark.parametrize("window", [
        Rect(0.1, 0.2, 0.105, 3.3),          # one sample and x1 across
        Rect(15.01, 15.3, 15.02, 19.7),      # over square edges
        Rect(-0.7, -0.3, 1.3, 17.55),        # 129 x 1144 samples
        Rect(14.37, 14.11, 18.9, 18.33),     # squares 1 and 2 and the gap
    ])
    def test_fixed_windows(self, window):
        self.check(net("two-tone-K3"), window)


class TestExactCovering:
    @staticmethod
    def check(n, window):
        got = check_covering(n, window)
        exact = covering_exact(n, window)
        # Voronoi vertices and the net's coordinates are rounded to the
        # coordinates' ulp
        tol = 8 * math.ulp(max(abs(window.x0), abs(window.x1),
                               abs(window.y0), abs(window.y1)) + 8.0)
        assert abs(got - exact) <= tol
        # the bound behind the single candidate radius of the window checks
        assert exact <= n.max_cell_spacing / math.sqrt(2) + tol

    @pytest.mark.parametrize("name", list(PLANS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_exact_radius(self, name, data):
        self.check(net(name), data.draw(windows(name)))

    @pytest.mark.parametrize("window", [
        Rect(0.1, 0.2, 0.105, 3.3),
        Rect(15.01, 15.3, 15.02, 19.7),      # 0.01 wide, over square edges
        Rect(-0.7, -0.3, 1.3, 17.55),
        Rect(14.37, 14.11, 18.9, 18.33),     # squares 1 and 2 and the gap
    ])
    def test_fixed_windows(self, window):
        self.check(net("two-tone-K3"), window)

    @pytest.mark.parametrize("n, window, want", [
        (limit_net, Rect(144.42480071086857, 139.08432530913456,
                         152.42480071086857, 147.08432530913456), 0.7668530054339455),
        (limit_net, Rect(651.1753024122776, 650.7606208641763,
                         659.1753024122776, 658.7606208641763), 0.8245963650132518),
        (lambda: net("two-tone-K3"), Rect(15.01, 15.3, 15.02, 19.7), 0.7528321280456561),
    ], ids=["limit-144", "limit-651", "two-tone-K3-edges"])
    def test_windows_the_bounds_leave_open(self, n, window, want):
        # no region's own lattice attains the radius where the others leave
        # it, so the arrangement resolves one
        with recording_arrangements() as calls:
            self.check(fresh(n()), window)
        assert calls
        assert covering_exact(n(), window) == want

    def test_a_benchmark_window_past_the_bounds_goes_to_the_arrangement(self):
        # a net-windows window whose bounds leave a region open: the
        # arrangement alone resolves it
        window = Rect(138.09549897819105, 139.93484037233785,
                      146.09549897819105, 147.93484037233785)
        with recording_arrangements() as regions:
            got = check_covering(fresh(limit_net()), window)
        assert regions
        assert got == 0.7299166773538549
        self.check(limit_net(), window)

    def test_the_arrangement_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique's first call imports numpy.ma, over a megabyte resident;
        # this window goes to the arrangement (above)
        code = ("import sys\n"
                "from bknet import DensityField, Rect, UNIT_SQUARE, build_net, check_covering,"
                " make_plan\n"
                "field = DensityField(UNIT_SQUARE, 1.0, ((Rect(0.5, 0.0, 1.0, 1.0), 2.0),))\n"
                "check_covering(build_net(make_plan(field, 3)), Rect(15.01, 15.3, 15.02, 19.7))\n"
                "assert 'numpy.ma' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=str(Path(netbuild.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_criterion_01_window_is_settled_by_the_bounds(self):
        plan = make_plan(TWO_TONE, 3)
        window = Rect(-2.0, -2.0, plan.schedule[1].square.x1 + 2.0,
                      plan.schedule[1].square.y1 + 2.0)
        with recording_arrangements() as calls:
            got = check_covering(build_net(plan), window)
        assert calls == []
        # the half diagonal of the 1.6-spaced cells' sub-squares
        assert got == pytest.approx(1.6 / math.sqrt(2), rel=1e-14)


class TestClosedForm:
    """check_covering settles each region inside one lattice from its own
    lattice's bounds, and the regions at seams, square edges and gaps
    over the lattices near them; the values stay the exact radius."""

    @pytest.mark.parametrize("name", list(SEAM_NETS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_windows_at_seams_equal_exact_radius(self, name, data):
        n = SEAM_NETS[name]()
        TestExactCovering.check(n, data.draw(seam_windows(n)))

    @pytest.mark.parametrize("window", [
        Rect(4.9, 8.0, 4.95, 10.0),     # left of square 2, within 1/sqrt(2)
        Rect(6.0, 4.9, 8.0, 4.95),      # below square 2
        Rect(4.8, 4.8, 4.95, 4.95),     # in the gap, by square 2's corner
    ])
    def test_windows_beside_a_square_edge_equal_exact_radius(self, window):
        # the square's half-spaced points are nearer than the background's
        TestExactCovering.check(SEAM_NETS["dense-two-tone-K3"](), window)

    @pytest.mark.parametrize("window", [
        Rect(20.6, 20.6, 22.4, 22.4),   # both corners across the gap
        Rect(21.1, 15.0, 21.9, 23.0),   # up the gap, right of square 2
        Rect(19.5, 21.2, 23.5, 21.8),   # along the gap, above square 2, below square 3
        Rect(20.9, 21.4, 21.6, 22.1),   # square 2's corner and square 3's edge
    ])
    def test_windows_on_the_background_between_squares_2_and_3(self, window):
        # the background's unit-square centres there make an L around each
        # square's corner, cut into rectangles by the two squares
        TestExactCovering.check(fresh(SEAM_NETS["dense-two-tone-K3"]()), window)

    @pytest.mark.parametrize("n, window", [
        (lambda: net("two-tone-K3"), Rect(90.0, 90.0, 100.0, 100.0)),   # a 32-wide cell
        (limit_net, Rect(350.0, 352.0, 360.5, 359.0)),                  # a 64-wide cell
        (lambda: net("two-tone-K3"), Rect(-40.0, -30.0, -20.0, -10.0)),  # background
        (lambda: net("two-tone-K3"), Rect(20.0, 0.5, 27.0, 9.5)),       # beside squares 1, 2
        (lambda: net("lattice"), Rect(-3.3, 0.1, 5.2, 7.7)),
    ], ids=["cell", "limit-cell", "background", "between-squares", "lattice"])
    def test_windows_inside_one_lattice_need_no_arrangement(self, n, window):
        with recording_arrangements() as calls:
            TestExactCovering.check(fresh(n()), window)
        assert calls == []

    @pytest.mark.parametrize("n, window", [
        (lambda: net("two-tone-K3"), Rect(14.37, 14.11, 18.9, 18.33)),
        (lambda: net("two-tone-K3"), Rect(3.0, 3.0, 15.0, 15.0)),
        (limit_net, Rect(400.0, 398.0, 410.0, 409.0)),   # over cell seams
        (limit_net, Rect(338.5, 337.0, 343.0, 342.5)),   # squares 3 and 4 and the gap
    ], ids=["squares-1-2", "square-1", "limit-seams", "limit-gap"])
    def test_windows_over_seams_and_gaps(self, n, window):
        TestExactCovering.check(fresh(n()), window)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("n, window", [
        (lambda: net("two-tone-K3"), Rect(14.37, 14.11, 18.9, 18.33)),
        (lambda: net("two-tone-K3"), Rect(3.0, 3.0, 15.0, 15.0)),
        (limit_net, Rect(400.0, 398.0, 410.0, 409.0)),
        (limit_net, Rect(338.5, 337.0, 343.0, 342.5)),
    ], ids=["squares-1-2", "square-1", "limit-seams", "limit-gap"])
    def test_a_split_window_keeps_its_radius(self, axis, n, window):
        # the window's radius is the larger of its two halves' radii; the
        # halves cut the regions and the arrangement elsewhere
        if axis == "x":
            mid = (window.x0 + window.x1) / 2
            halves = (Rect(window.x0, window.y0, mid, window.y1),
                      Rect(mid, window.y0, window.x1, window.y1))
        else:
            mid = (window.y0 + window.y1) / 2
            halves = (Rect(window.x0, window.y0, window.x1, mid),
                      Rect(window.x0, mid, window.x1, window.y1))
        tol = 8 * math.ulp(max(abs(window.x0), abs(window.x1),
                               abs(window.y0), abs(window.y1)) + 8.0)
        whole = check_covering(fresh(n()), window)
        assert abs(whole - max(check_covering(fresh(n()), h) for h in halves)) <= 2 * tol

    def test_a_large_window_peaks_below_8_mb(self):
        n = fresh(net("two-tone-K3"))
        window = Rect(-2.0, -2.0, 340.0, 340.0)   # every square and gap
        n._cells   # the lattice table, built beforehand
        tracemalloc.start()
        try:
            check_covering(n, window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 1/64 sample grid this replaced peaked at 38 MB with one first
        # level over all its blocks, and at 8 MB in tiles of them
        assert peak <= 8 * 2 ** 20
        TestExactCovering.check(net("two-tone-K3"), window)


class TestIntegerSquares:
    @pytest.mark.parametrize("value, schedule, entry", [
        (1.0, OFF_GRID, 0),
        # the plan on which check_separation read 0.5 where the net has 0.395
        (0.25, (netbuild.ScheduleEntry(Rect(0.25, 0.75, 8.25, 8.75), 8, 1),
                netbuild.ScheduleEntry(Rect(9.625, 9.125, 41.625, 41.125), 32, 2)), 0),
        (1.0, (netbuild.ScheduleEntry(Rect(0, 0, 4, 4), 4, 2), OFF_GRID[1]), 1),
    ], ids=["off-grid", "off-grid-separation", "second-entry"])
    def test_a_square_off_the_integer_grid(self, value, schedule, entry):
        with pytest.raises(ValueError, match=rf"schedule entry {entry}: .* off the integer grid"):
            netbuild.NetPlan(constant_field(value), schedule)

    def test_integer_corners_as_floats_are_kept(self):
        plan = netbuild.NetPlan(constant_field(1.0), (
            netbuild.ScheduleEntry(Rect(1.0, 2.0, 5.0, 6.0), 4, 2),))
        window = Rect(-0.5, 0.2, 6.3, 7.1)
        n = build_net(plan)
        assert_same_arrays(n.points_in_window(window), points_by_full_scan(n, window))
        TestClosedFormSeparation.check(n, window)
        TestExactCovering.check(n, window)


class TestClosedFormSeparation:
    """check_separation resolves every window point's own-lattice neighbours
    in closed form and pairs only the lattices whose window points reach
    their outer ring with the other lattices near them; the values stay
    the full scan's."""

    @staticmethod
    def check(n, window):
        try:
            want = separation_by_full_scan(n, window)
        except ValueError:
            with pytest.raises(ValueError, match="fewer than 2 points"):
                check_separation(fresh(n), window)
            return
        assert check_separation(fresh(n), window) == want

    @pytest.mark.parametrize("name", list(SEAM_NETS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_windows_at_seams_equal_full_scan(self, name, data):
        n = SEAM_NETS[name]()
        self.check(n, data.draw(seam_windows(n)))

    @pytest.mark.parametrize("name", list(PLANS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_windows_equal_full_scan(self, name, data):
        self.check(net(name), data.draw(windows(name)))

    @pytest.mark.parametrize("name", ["two-tone-K2", "two-tone-K3", "constant-4-K1"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_edges_on_cell_boundaries_and_grid_lines(self, name, data):
        self.check(net(name), data.draw(edge_windows(name)))

    @pytest.mark.parametrize("window", [
        Rect(4.9, 8.0, 4.95, 10.0),     # left of square 2, within 1
        Rect(6.0, 4.4, 8.0, 4.95),      # below square 2
        Rect(4.0, 4.0, 5.5, 5.5),       # the gap, by square 2's corner
        Rect(3.5, 5.5, 6.5, 6.5),       # over square 2's left edge
    ])
    def test_windows_beside_a_square_edge_equal_full_scan(self, window):
        # the square's half-spaced points are nearer than the background's
        self.check(SEAM_NETS["dense-two-tone-K3"](), window)

    @pytest.mark.parametrize("n, window", [
        (lambda: net("two-tone-K3"), Rect(90.0, 90.0, 100.0, 100.0)),   # a 32-wide cell
        (limit_net, Rect(350.0, 352.0, 360.5, 359.0)),                  # a 64-wide cell
        (lambda: net("two-tone-K3"), Rect(-40.0, -30.0, -20.0, -10.0)),  # background
        (lambda: net("two-tone-K3"), Rect(20.0, 0.5, 27.0, 9.5)),       # beside squares 1, 2
        (lambda: net("lattice"), Rect(-3.3, 0.1, 5.2, 7.7)),
    ], ids=["cell", "limit-cell", "background", "between-squares", "lattice"])
    def test_windows_inside_one_lattice_make_no_cross_query(self, n, window):
        with recording_pairs() as calls:
            sep = check_separation(fresh(n()), window)
        assert calls == []
        assert sep == separation_by_full_scan(n(), window)

    def test_a_large_lattice_window_scans_no_point(self):
        # 128 x 256 centres, each with its nearest other point 1 away
        with recording_pairs() as calls:
            assert check_separation(fresh(net("lattice")), Rect(0.0, 0.0, 128.0, 256.0)) == 1.0
        assert calls == []

    @staticmethod
    def lattice_points(box, step, size, k):
        """Every point of lattice k of a `_near_lattices` table, made as
        `_sq_gaps` makes its coordinates."""
        xs, ys = ((np.arange(size[k, a]) + 0.5) * step[k] + box[k, a] for a in (0, 1))
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    @staticmethod
    def seam_regions(n):
        """Small regions over each square's corners and the gaps beside them."""
        for e in n.plan.schedule or [netbuild.ScheduleEntry(Rect(0.0, 0.0, 4.0, 4.0), 4, 1)]:
            s = e.square
            for x, y in ((s.x0, s.y0), (s.x1, s.y1), (s.x0, s.y1)):
                yield Rect(x - 2.3, y - 1.7, x + 1.9, y + 2.1)

    @pytest.mark.parametrize("name", list(SEAM_NETS))
    def test_near_lattices_hold_the_points_of_their_region(self, name):
        n = SEAM_NETS[name]()
        for region in self.seam_regions(n):
            rows, box, step, size = netbuild._near_lattices(
                n._cells, region.x0, region.y0, region.x1, region.y1)
            pts = np.concatenate([self.lattice_points(box, step, size, k)
                                  for k in range(len(box))])
            inside = ((pts[:, 0] >= region.x0) & (pts[:, 0] <= region.x1)
                      & (pts[:, 1] >= region.y0) & (pts[:, 1] <= region.y1))
            # each point once, on one lattice
            assert np.array_equal(as_sorted_complex(pts[inside]),
                                  as_sorted_complex(n.points_in_window(region)[0]))
            assert np.array_equal(box[:len(rows)],
                                  np.column_stack([n._cells.lo[rows], n._cells.hi[rows]]))

    @staticmethod
    def window_range(box, step, size, k, window):
        """(first, count): per axis, the indices of lattice k of a
        `_near_lattices` table whose coordinates lie in the window."""
        first, count = [], []
        for a, lo, hi in ((0, window.x0, window.x1), (1, window.y0, window.y1)):
            c = (np.arange(size[k, a]) + 0.5) * step[k] + box[k, a]
            inside = np.flatnonzero((c >= lo) & (c <= hi))
            first.append(inside[0] if len(inside) else 0)
            count.append(len(inside))
        return first, count

    @pytest.mark.parametrize("name", list(SEAM_NETS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_window_range_is_each_lattice_s_indices_in_the_window(self, name, data):
        n = SEAM_NETS[name]()
        window = data.draw(seam_windows(n))
        rows, box, step, size = netbuild._near_lattices(
            n._cells, window.x0 - 2.0, window.y0 - 2.0, window.x1 + 2.0, window.y1 + 2.0)
        first, end = netbuild._window_range(fresh(n)._cells, window, rows, box, size)
        want = np.array([self.window_range(box, step, size, k, window)
                         for k in range(len(box))], dtype=np.intp).reshape(-1, 2, 2)
        # the same ranges for the lattices with window points, and none else
        some = (want[:, 1] > 0).all(axis=1)
        assert np.array_equal((end - first).prod(axis=1) > 0, some)
        assert np.array_equal(first[some], want[some, 0])
        assert np.array_equal(end[some] - first[some], want[some, 1])

    @pytest.mark.parametrize("name", [name for name in SEAM_NETS if name != "lattice"])
    def test_a_window_across_a_cut_pairs_two_background_rectangles(self, name):
        # the background's rectangles are cut along the line through the last
        # square's top edge, and the window crosses that line left of it
        n = SEAM_NETS[name]()
        s = n.plan.schedule[-1].square
        window = Rect(s.x0 - 3.2, s.y1 - 2.3, s.x0 - 0.2, s.y1 + 2.4)
        with recording_pairs() as calls:
            self.check(n, window)
        (box, a, b), = calls
        cells = {tuple(c) for c in np.column_stack([n._cells.lo, n._cells.hi]).tolist()}
        background = [tuple(c) not in cells for c in box.tolist()]
        assert not all(background)
        assert any(background[i] and background[j] for i, j in zip(a.tolist(), b.tolist()))

    @pytest.mark.parametrize("name", [name for name in SEAM_NETS if name != "lattice"]
                             + ["one-point"])
    def test_pair_least_sq_equals_a_scan_of_the_pair(self, name):
        # every ordered pair of the lattices near each region, whether its
        # boxes touch, lie apart on one axis or on both
        n = ONE_POINT() if name == "one-point" else SEAM_NETS[name]()
        reach = math.sqrt(2.0) * n.max_cell_spacing * (1.0 + 1e-9)
        kinds = set()
        for window in self.seam_regions(n):
            _, box, step, size = netbuild._near_lattices(
                n._cells, window.x0 - reach, window.y0 - reach,
                window.x1 + reach, window.y1 + reach)
            ranges = np.array([self.window_range(box, step, size, k, window)
                               for k in range(len(box))], dtype=np.intp).reshape(-1, 2, 2)
            first, count = ranges[:, 0], ranges[:, 1]
            trees = [cKDTree(self.lattice_points(box, step, size, k)) for k in range(len(box))]
            for a in np.flatnonzero((count > 0).all(axis=1)):
                (f0, f1), (c0, c1) = first[a], count[a]
                pts = self.lattice_points(box, step, size, a).reshape(size[a, 0], size[a, 1], 2)
                pts = pts[f0:f0 + c0, f1:f1 + c1].reshape(-1, 2)
                for b in range(len(box)):
                    if b == a:
                        continue
                    want = float(trees[b].query(pts)[0].min())
                    got = netbuild._pair_least_sq(box, step, size, first, count,
                                                  np.array([a]), np.array([b]), math.inf)
                    assert math.sqrt(got) == want
                    # a best below the pair's value is returned as it is
                    assert netbuild._pair_least_sq(box, step, size, first, count, np.array([a]),
                                                   np.array([b]), got / 2) == got / 2
                    kinds.add(int(((box[a, :2] >= box[b, 2:]) | (box[b, :2] >= box[a, 2:])).sum()))
            # all pairs at once give the least of them
            a, b = (v.ravel() for v in np.meshgrid(np.flatnonzero((count > 0).all(axis=1)),
                                                   np.arange(len(box)), indexing="ij"))
            a, b = a[a != b], b[a != b]
            want = min(netbuild._pair_least_sq(box, step, size, first, count, a[j:j + 1],
                                               b[j:j + 1], math.inf) for j in range(len(a)))
            assert netbuild._pair_least_sq(box, step, size, first, count, a, b,
                                           math.inf) == want
        # boxes apart (or touching) on one axis and overlapping on the other
        assert 1 in kinds

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pair_least_sq_on_random_lattice_pairs(self, data):
        # lattice A above B, touching it or apart, and along the other axis
        # starting up to its own width before or after B, with steps drawn
        # apart; A's points a sub-range of its lattice; then, at random, the
        # two axes swapped
        h = np.array([data.draw(st.floats(0.05, 3.0)) for _ in range(2)])
        size = np.array([[data.draw(st.integers(1, 8)) for _ in range(2)] for _ in range(2)])
        ob = np.array([data.draw(st.floats(-20.0, 20.0)) for _ in range(2)])
        top = ob[1] + h[1] * size[1, 1]
        oa = np.array([ob[0] + data.draw(st.floats(-1.0, 1.0)) * h[0] * size[0, 0],
                       top + data.draw(st.sampled_from([0.0]) | st.floats(0.0, 5.0))])
        box = np.array([[*oa, *(oa + h[0] * size[0])], [*ob, *(ob + h[1] * size[1])]])
        if data.draw(st.booleans()):
            box, size = box[:, [1, 0, 3, 2]], size[:, ::-1].copy()
        first = np.array([[data.draw(st.integers(0, k - 1)) for k in size[0]], [0, 0]])
        count = np.array([[data.draw(st.integers(1, k - f)) for k, f in zip(size[0], first[0])],
                          [1, 1]])
        pts = self.lattice_points(box, h, size, 0).reshape(*size[0], 2)
        pts = pts[first[0, 0]:first[0, 0] + count[0, 0], first[0, 1]:first[0, 1] + count[0, 1]]
        want = float(cKDTree(self.lattice_points(box, h, size, 1)).query(
            pts.reshape(-1, 2))[0].min())
        got = netbuild._pair_least_sq(box, h, size, first, count, np.array([0]), np.array([1]),
                                      math.inf)
        assert math.sqrt(got) == want

    @pytest.mark.parametrize("window", [
        Rect(4.0, 16.2, 12.0, 16.8),    # inside the strip: only its own points 1 apart
        Rect(0.3, 15.5, 15.7, 17.5),    # across it, over both squares' cells
        Rect(-1.5, 16.0, 0.5, 17.0),    # at its end, beside the background
    ])
    def test_a_strip_between_two_squares(self, window):
        # a unit strip of background centres between two squares of spacing 2:
        # its own rectangle alone gives 1, every other lattice 1.5 or more
        n = build_net(netbuild.NetPlan(constant_field(4.0), (
            netbuild.ScheduleEntry(Rect(0.0, 0.0, 16.0, 16.0), 16, 2),
            netbuild.ScheduleEntry(Rect(0.0, 17.0, 64.0, 81.0), 64, 4))))
        assert n.max_cell_spacing == 2.0
        self.check(n, window)

    @staticmethod
    def check_entering(n, window):
        """The lattices check_separation pairs with others are those holding
        a point `ring_by_classifying` marks, among the cells; among the
        background rectangles they include those."""
        want = ring_by_classifying(n, window)
        with recording_pairs() as calls:
            try:
                check_separation(fresh(n), window)
            except ValueError:
                want = want[:0]   # fewer than 2 points: no pair
        assert len(calls) <= 1
        if not calls:
            assert len(want) == 0
            return
        (box, a, _), = calls
        # the lattice of the table holding each marked point
        holds = ((box[:, None, 0] < want[:, 0]) & (want[:, 0] < box[:, None, 2])
                 & (box[:, None, 1] < want[:, 1]) & (want[:, 1] < box[:, None, 3]))
        assert (holds.sum(axis=0) == 1).all()
        cells = {tuple(b) for b in np.column_stack([n._cells.lo, n._cells.hi]).tolist()}
        got = {tuple(b) for b in box[np.unique(a)].tolist()}
        marked = {tuple(b) for b in box[holds.any(axis=1)].tolist()}
        assert got & cells == marked & cells
        # a background rectangle also enters where the window crosses a cut
        # along the line through a square's edge, 1 from the centres beyond it
        assert marked - cells <= got - cells

    @pytest.mark.parametrize("name", list(SEAM_NETS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pairs_the_lattices_the_former_classifier_marked(self, name, data):
        n = SEAM_NETS[name]()
        self.check_entering(n, data.draw(seam_windows(n)))

    @pytest.mark.parametrize("window", [
        Rect(-1.0, -1.0, 5.0, 5.0), Rect(0.2, 0.3, 2.6, 1.1), Rect(3.5, -0.5, 4.5, 4.5)])
    def test_one_point_lattices_enter_pairs(self, window):
        # cells 1 wide of one point each: index 0 is also n - 1
        n = ONE_POINT()
        assert n._cells.n.tolist() == [1] * 16
        self.check_entering(n, window)
        self.check(n, window)

    def test_a_mostly_background_window_peaks_below_8_mb(self):
        n = build_net(make_plan(TWO_TONE, 4))
        window = Rect(-2.0, -2.0, 6000.0, 6000.0)   # every square, and 36M unit squares
        n._cells   # the lattice table, built beforehand
        tracemalloc.start()
        try:
            got = check_separation(n, window)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == 1.0
        # 3.0 MB measured; a mask of the window's unit squares alone is 36 MB,
        # and the check that built one peaked at 43 MB
        assert peak <= 8 * 2 ** 20


class TestSharedCandidates:
    def test_interleaved_windows_match_fresh_calls(self):
        n = fresh(net("two-tone-K3"))
        a, b = Rect(14.37, 14.11, 18.9, 18.33), Rect(-0.7, -0.3, 1.3, 17.55)
        for window in (a, b, a, a, b):
            for query in (check_covering, check_separation):
                assert query(n, window) == query(fresh(n), window)

    def test_separation_peaks_far_below_the_points(self):
        n = build_net(make_plan(TWO_TONE, 4))
        window = Rect(-2.0, -2.0, 1400.0, 1400.0)   # every square: 1,698,938 points
        n._cells   # the lattice table, built beforehand
        tracemalloc.start()
        try:
            got = check_separation(n, window)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == 1.0
        # 9.7 MB measured; the candidate set of the points around the window
        # and a bucket index over it peaked at 80 MB and kept 32 MB
        assert peak <= 16 * 2 ** 20
        assert kept <= 2 ** 20

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
        want = [(separation_by_full_scan(n, w), check_covering(fresh(n), w)) for w in self.WINDOWS]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netbuild, "_PAIR_BATCH", chunk)
            got = [(check_separation(fresh(n), w), check_covering(fresh(n), w))
                   for w in self.WINDOWS]
        assert got == want


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
        pts, tags, k = netbuild._explicit_points(n._cells, window, spare)
        assert len(pts) == len(tags) >= k + spare
        assert_same_arrays((pts[:k], tags[:k]),
                           explicit_points_by_stacking(n.plan, n.counts, window))

    @pytest.mark.parametrize("name", ["lattice", "two-tone-K3"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_windows_that_meet_no_cell(self, name, data):
        n = net(name)
        window = data.draw(cell_free_windows(name))
        _, _, k = netbuild._explicit_points(n._cells, window)
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
