"""Separated nets from density fields.

A plan schedules disjoint integer-vertex squares of geometrically growing
side along the diagonal; inside each square the reciprocal transplanted
density decides how many points each subdivision cell holds.  A net keeps
those counts and, like the unit lattice of integer-square centers outside
the squares, materializes its points per query window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import DensityField, _integrate
from .geometry import Rect, Similarity, UNIT_SQUARE, first_overlap


# check_covering queries one sample per block of _BLOCK x _BLOCK grid
# samples, then quarters a block only while it could still hold the maximum
_BLOCK = 32
# relative slack on that bound: the bound and the query distances are each
# rounded, so a sample attaining the bound may read a few ulps above it
_SLACK = 1e-12
# _Grid: queries per vectorised step (the step's temporaries hold a few
# dozen floats per query)
_CHUNK = 1 << 12
# check_covering resolves blocks and runs branch and bound on the rest in
# tiles of _TILE x _TILE blocks, so its arrays stay bounded on any window
_TILE = 128
_CSV_CHUNK = 1 << 14   # rows per format call of net_to_csv


@dataclass(frozen=True)
class ScheduleEntry:
    square: Rect     # integer vertices, axis parallel
    side: int        # l_k
    m: int           # m_k


@dataclass(frozen=True)
class NetPlan:
    density: DensityField
    schedule: tuple[ScheduleEntry, ...]

    def __post_init__(self):
        top = max(self.density.values())
        c = top - 1.0   # the density's amplitude
        prev_side, prev_ratio = 0, math.inf
        for n, e in enumerate(self.schedule):
            if not e.square.width == e.square.height == e.side:
                raise ValueError(f"schedule entry {n}: {e.square} is not {e.side} x {e.side}")
            if e.side <= prev_side:
                raise ValueError("square sides must be strictly increasing")
            ratio = e.m / e.side
            if ratio >= prev_ratio:
                raise ValueError("m_k/l_k must be strictly decreasing")
            if e.side / e.m < 2 * (1 + c):
                raise ValueError(
                    f"l_k/m_k = {e.side / e.m} below 2(1+c) = {2 * (1 + c)}")
            # build_net gives a cell floor(sqrt(its reciprocal-density mass))^2
            # points, and that mass is at least (side / m)^2 / top
            least = (e.side / e.m) ** 2 / top
            if least < 1:
                raise ValueError(f"schedule entry {n}: smallest cell mass "
                                 f"(side/m)^2 / max value = {least} below 1")
            prev_side, prev_ratio = e.side, ratio
        dom = self.density.domain
        if dom.width != dom.height:
            # build_net scales the domain by side / width onto each square
            raise ValueError(f"a net plan needs a square density domain, got {dom}")
        if first_overlap([e.square for e in self.schedule]) is not None:
            raise ValueError("schedule squares overlap")


def make_plan(density: DensityField, K: int) -> NetPlan:
    """Schedule K squares: l_k = 4^(k+k0), m_k = 2^k, with k0 the smallest
    offset making l_1/m_1 >= 2(1+c); squares sit on the diagonal with unit
    gaps starting at the origin."""
    if K < 0:
        raise ValueError("K must be >= 0")
    c = density.amplitude
    k0 = 0
    while 4 ** (1 + k0) / 2 < 2 * (1 + c):
        k0 += 1
    entries = []
    t = 0
    for k in range(1, K + 1):
        side = 4 ** (k + k0)
        entries.append(ScheduleEntry(Rect(t, t, t + side, t + side), side, 2 ** k))
        t += side + 1
    return NetPlan(density, tuple(entries))


@dataclass(frozen=True)
class Net:
    plan: NetPlan
    counts: tuple[np.ndarray, ...]  # per square: n_ki as an (m, m) array
    integrals: tuple[np.ndarray, ...]  # per square: the cell integrals as an (m, m) array

    @functools.cached_property
    def _fill(self) -> tuple[np.ndarray, np.ndarray]:
        """(points, tags) over the squares' bounding box, built together on first read."""
        sq = [e.square for e in self.plan.schedule] or [UNIT_SQUARE]  # none: no points
        box = Rect(min(s.x0 for s in sq), min(s.y0 for s in sq),
                   max(s.x1 for s in sq), max(s.y1 for s in sq))
        points, tags, k = _explicit_points(self.plan, self.counts, box)
        return points[:k], tags[:k]

    points = property(lambda self: self._fill[0], doc="explicit points inside the squares")
    tags = property(lambda self: self._fill[1], doc="schedule index (1-based) per explicit point")

    @functools.cached_property
    def max_cell_spacing(self) -> float:
        """Largest point spacing over all subdivision cells (>= 1 for the
        background)."""
        return float(max([1.0] + [e.side / e.m / n.min()
                                  for e, n in zip(self.plan.schedule, self.counts)]))

    def points_in_window(self, window: Rect) -> tuple[np.ndarray, np.ndarray]:
        """Explicit points plus lazily materialized background lattice
        centers inside the closed window.  Returns (points, tags); background
        points carry tag 0.  Explicit points come in the order of
        `self.points`, enumerated from the cells the window meets."""
        _check_finite(window)
        xs = np.arange(math.floor(window.x0), math.ceil(window.x1))
        ys = np.arange(math.floor(window.y0), math.ceil(window.y1))
        gx, gy = (g.ravel() for g in np.meshgrid(xs, ys, indexing="ij"))
        keep = _in_window(gx + 0.5, gy + 0.5, window)
        # drop centers of integer squares contained in a scheduled square
        for e in self.plan.schedule:
            s = e.square
            keep &= ~((gx >= s.x0) & (gx + 1 <= s.x1) & (gy >= s.y0) & (gy + 1 <= s.y1))
        gx, gy = gx[keep], gy[keep]
        # the lattice centers go into the rows after the explicit points
        pts, tags, k = _explicit_points(self.plan, self.counts, window, len(gx))
        end = k + len(gx)
        pts[k:end, 0], pts[k:end, 1], tags[k:end] = gx + 0.5, gy + 0.5, 0
        return pts[:end], tags[:end]


def _check_finite(window: Rect) -> None:
    if not all(math.isfinite(v) for v in (window.x0, window.y0, window.x1, window.y1)):
        raise ValueError(f"window {window} has a non-finite coordinate")


def _in_window(x: np.ndarray, y: np.ndarray, window: Rect) -> np.ndarray:
    """Mask of the points (x, y) inside the closed window."""
    return (x >= window.x0) & (x <= window.x1) & (y >= window.y0) & (y <= window.y1)


def _near(net: Net, window: Rect) -> tuple[np.ndarray, _Grid]:
    """The net points in the window inflated by 2s, s = net.max_cell_spacing,
    and a bucket index over them.  They hold every window point's nearest net
    point and every window net point's nearest neighbour: each point of the
    plane is within s/sqrt(2) of the net (of a subdivision cell's grid
    centers, or of the lattice center of a unit square no scheduled square
    contains), and a Voronoi neighbour of a net point is within twice that,
    so the index needs to reach only s/sqrt(2).  The net keeps the last
    window's set, so check_separation and then check_covering on one window
    gather and index it once."""
    _check_finite(window)
    last = vars(net).get("_near_last")
    if last is not None and last[0] == window:
        return last[1], last[2]
    r = 2.0 * net.max_cell_spacing
    pts, _ = net.points_in_window(Rect(window.x0 - r, window.y0 - r,
                                       window.x1 + r, window.y1 + r))
    grid = _Grid(pts, net.max_cell_spacing / math.sqrt(2))
    # a frozen dataclass: set the memo the way functools.cached_property does
    vars(net)["_near_last"] = (window, pts, grid)
    return pts, grid


class _Grid:
    """Nearest-point queries over the points `pts` (at least one), for query
    points whose answer lies within `reach`, read from square buckets.

    A bucket is W wide and W high, W = reach widened by a relative 1e-9 so
    that rounding in the bucket arithmetic loses no point at distance reach.
    Three empty columns and rows pad the points' buckets, so every query
    with its answer within reach keeps the buckets it reads inside the
    table.  The points are sorted by bucket, column by column, and followed
    by +inf padding.  Rows cy - w to cy + w of one column are then one
    stretch of sorted points, no longer than the most any 2 w + 1
    consecutive buckets hold (`_span[w]`), so the points within w W of a
    query in bucket (cx, cy) lie in 2 w + 1 slices of that length.  A slice
    may run on into later buckets; extra real points never change a
    minimum.  A squared distance is dx * dx + dy * dy and a distance its
    sqrt, as in scipy's cKDTree, so the distances equal its bit for bit."""

    def __init__(self, pts: np.ndarray, reach: float):
        self.reach = reach
        self._n = len(pts)
        self._w = reach * (1.0 + 1e-9)
        self._x0 = float(pts[:, 0].min()) - 3.0 * self._w
        self._y0 = float(pts[:, 1].min()) - 3.0 * self._w
        cx, cy = self._cells(pts[:, 0], pts[:, 1])
        self._nx, self._ny = int(cx.max()) + 4, int(cy.max()) + 4
        b = cx * self._ny + cy
        # 32-bit positions halve the index wherever they can hold every point
        pos = np.int32 if len(pts) < 2 ** 31 else np.intp
        order = np.argsort(b, kind="stable").astype(pos)
        start = np.zeros(self._nx * self._ny + 1, dtype=pos)
        np.cumsum(np.bincount(b, minlength=self._nx * self._ny), out=start[1:])
        self._start = start
        self._span = {w: int((start[2 * w + 1:] - start[:-2 * w - 1]).max()) for w in (1, 2)}
        pad = np.full(self._span[2], np.inf)
        self._x = np.concatenate([pts[order, 0], pad])
        self._y = np.concatenate([pts[order, 1], pad])
        self._order = np.concatenate([order, np.full(len(pad), self._n, dtype=pos)])

    def _cells(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (np.floor((x - self._x0) / self._w).astype(np.intp),
                np.floor((y - self._y0) / self._w).astype(np.intp))

    def _scan(self, x: np.ndarray, y: np.ndarray, w: int,
              skip: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(distance, sorted position) of a nearest candidate within w W of
        each query (x, y), passing over sorted position skip[q] for query q."""
        d, k = np.empty(len(x)), np.empty(len(x), dtype=np.intp)
        offsets = np.arange(-w, w + 1) * self._ny - w
        for a in range(0, len(x), _CHUNK):
            part = slice(a, a + _CHUNK)
            cx, cy = self._cells(x[part], y[part])
            st = self._start[(cx * self._ny + cy)[:, None] + offsets]
            idx = (st[:, :, None] + np.arange(self._span[w])).reshape(len(st), -1)
            dx = self._x.take(idx) - x[part, None]
            dy = self._y.take(idx) - y[part, None]
            dx *= dx
            dy *= dy
            dx += dy
            if skip is not None:
                dx[idx == skip[part, None]] = np.inf
            j = dx.argmin(axis=1)
            rows = np.arange(len(j))
            d[part], k[part] = np.sqrt(dx[rows, j]), idx[rows, j]
        return d, k

    def nearest(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distance, index) of a nearest point to each query (x, y)."""
        d, k = self._scan(x, y, 1)
        return d, self._order[k]

    def nearest_other(self, i: np.ndarray) -> np.ndarray:
        """The distance from each point pts[i] to its nearest other point,
        for points whose nearest neighbour lies within 2 reach.  The
        candidates within W decide it when that distance is at most reach;
        only the other points are queried again within 2 W."""
        rank = np.empty(self._n, dtype=np.intp)
        rank[self._order[:self._n]] = np.arange(self._n)
        pos = rank[i]
        d, _ = self._scan(self._x[pos], self._y[pos], 1, pos)
        far = d > self.reach
        d[far], _ = self._scan(self._x[pos[far]], self._y[pos[far]], 2, pos[far])
        return d


def _cell_edges(e: ScheduleEntry) -> tuple[list[float], list[float]]:
    """The x and y edges of a schedule entry's m x m cells: cell (i, j) is
    [xs[i], xs[i+1]] x [ys[j], ys[j+1]], edge i at square.x0 + i * (side / m)."""
    steps = np.arange(e.m + 1) * (e.side / e.m)
    return (e.square.x0 + steps).tolist(), (e.square.y0 + steps).tolist()


def _reach(lo: float, hi: float, origin: float, step: float, n: int) -> range:
    """The a in [0, n) whose [origin + a step, origin + (a+1) step] may meet [lo, hi]."""
    return range(max(0, math.floor((lo - origin) / step) - 1),
                 min(n, math.floor((hi - origin) / step) + 2))


def _explicit_points(plan: NetPlan, counts, window: Rect,
                     spare: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """(points, tags, k): the k explicit points in the closed window and their
    tags, in `Net.points` order, as the first k rows of arrays with at least
    `spare` rows more for the caller to fill.  Cell T holds n x n centers
    T.x0 + step * (a + 0.5), step = T.width / n; only the cells and indices
    within one of the window's reach are made, each written in place."""
    blocks = []
    for idx, (e, n_arr) in enumerate(zip(plan.schedule, counts), start=1):
        cell = e.side / e.m
        cols = _reach(window.x0, window.x1, e.square.x0, cell, e.m)
        rows = _reach(window.y0, window.y1, e.square.y0, cell, e.m)
        if not (cols and rows):
            continue
        xs, ys = _cell_edges(e)
        for i in cols:
            for j in rows:
                n = int(n_arr[i, j])
                step = cell / n
                tx0, ty0 = xs[i], ys[j]
                a = _reach(window.x0, window.x1, tx0, step, n)
                b = _reach(window.y0, window.y1, ty0, step, n)
                if a and b:
                    blocks.append((idx, tx0, ty0, step, a, b))
    size = sum(len(a) * len(b) for *_, a, b in blocks) + spare
    points, tags = np.empty((size, 2)), np.empty(size, dtype=int)
    k = 0
    for idx, tx0, ty0, step, a, b in blocks:
        gx = np.repeat(tx0 + step * (np.arange(a.start, a.stop) + 0.5), len(b))
        gy = np.tile(ty0 + step * (np.arange(b.start, b.stop) + 0.5), len(a))
        keep = _in_window(gx, gy, window)
        end = k + int(np.count_nonzero(keep))
        points[k:end, 0], points[k:end, 1], tags[k:end] = gx[keep], gy[keep], idx
        k = end
    return points, tags, k


def build_net(plan: NetPlan) -> Net:
    """Count each scheduled square's points: the reciprocal density is
    transplanted onto the square, the square is cut into m^2 cells, and each
    cell holds n^2 evenly spaced centers, n = floor(sqrt(integral over it))."""
    counts, integrals = [], []
    dom = plan.density.domain
    # the values of reciprocal_transplant(plan.density, phi), then per square
    # its cell boxes, with phi's float arithmetic in Similarity.apply_rect
    box, val = plan.density._columns
    with np.errstate(over="ignore"):
        inv_val = 1.0 / val
    inv_default = 1.0 / plan.density.default
    if plan.schedule and not (math.isfinite(inv_default) and np.isfinite(inv_val).all()):
        raise ValueError("the reciprocal density has a non-finite value")
    for idx, e in enumerate(plan.schedule, start=1):
        scale = e.side / dom.width
        phi = Similarity(scale, e.square.x0 - dom.x0 * scale, e.square.y0 - dom.y0 * scale)
        box_k = box * phi.scale + np.array([phi.tx, phi.ty, phi.tx, phi.ty])
        xs, ys = np.array(_cell_edges(e))
        # one call per row of cells: cell (i, j) for j = 0..m-1
        mass = np.array([_integrate(box_k, inv_val, inv_default, np.column_stack(
            [np.full(e.m, xs[i]), ys[:-1], np.full(e.m, xs[i + 1]), ys[1:]]))
            for i in range(e.m)])
        n_arr = np.floor(np.sqrt(mass)).astype(int)
        if not n_arr.all():
            raise ValueError(f"empty cell in square {idx}: plan invariant violated")
        counts.append(n_arr)
        integrals.append(mass)
    return Net(plan, tuple(counts), tuple(integrals))


def check_separation(net: Net, window: Rect) -> float:
    """Exact minimum pairwise distance over pairs with at least one point
    in the window, read from the candidate set of `_near`."""
    pts, grid = _near(net, window)
    inside = np.flatnonzero(_in_window(pts[:, 0], pts[:, 1], window))
    if len(inside) < 2:
        raise ValueError("window contains fewer than 2 points")
    return float(grid.nearest_other(inside).min())


def check_covering(net: Net, window: Rect) -> float:
    """Covering radius under-approximation: the maximum distance to the net
    over the sample grid of step 1/64 on the window (additive error <=
    sqrt(2)/128).  The value is exactly that grid maximum.

    The samples form blocks of _BLOCK x _BLOCK.  A block whose nearest net
    points all lie on one lattice is resolved in closed form (see
    `_Lattices`): one inside a subdivision cell, or one far from every
    scheduled square.  The other blocks, near cell seams, square edges and
    gaps, go through branch and bound in tiles of _TILE x _TILE blocks that
    share one running maximum: a block is bounded by its farthest corner
    from the net point nearest a sample of it, so only a few per cent of
    their samples are queried."""
    pts, grid = _near(net, window)
    step = 1.0 / 64.0
    xs = np.arange(window.x0, window.x1 + step / 2, step)
    ys = np.arange(window.y0, window.y1 + step / 2, step)
    lat = _Lattices(net, window, xs, ys)
    worst = lat.cell_max
    for c0 in range(0, lat.cols.n, _TILE):
        for r0 in range(0, lat.rows.n, _TILE):
            done, value = lat.resolve(slice(c0, min(c0 + _TILE, lat.cols.n)),
                                      slice(r0, min(r0 + _TILE, lat.rows.n)))
            worst = max(worst, value)
            # the other blocks as half-open sample index ranges [i0, i1) x [j0, j1);
            # 32-bit indices halve the arrays, one block per _BLOCK^2 samples
            bc, br = np.nonzero(~done)
            i0 = ((bc + c0) * _BLOCK).astype(np.int32)
            j0 = ((br + r0) * _BLOCK).astype(np.int32)
            worst = _branch_and_bound(grid, pts, xs, ys, i0, j0, worst)
    return worst


def _branch_and_bound(grid: _Grid, pts: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                      i0: np.ndarray, j0: np.ndarray, worst: float) -> float:
    """The larger of worst and the grid's maximum distance to the net over
    the blocks of samples [i0, i0 + _BLOCK) x [j0, j0 + _BLOCK), clipped to
    the grid."""
    i1, j1 = np.minimum(i0 + _BLOCK, len(xs)), np.minimum(j0 + _BLOCK, len(ys))
    while len(i0):
        ri, rj = (i0 + i1) // 2, (j0 + j1) // 2
        d, k = grid.nearest(xs[ri], ys[rj])
        worst = max(worst, float(d.max()))
        # a block is done when it is one sample, or when no sample of it can
        # lie farther from the net than worst; the quarters of the others
        # inherit the net point nearest their parent's centre sample, and
        # are pruned by the same bound on their own box before their query
        p = pts[k]
        live = ((i1 - i0 > 1) | (j1 - j0 > 1)) & _may_exceed(p, xs, ys, i0, i1, j0, j1, worst)
        i0, i1, j0, j1, p = _quarters(i0[live], i1[live], j0[live], j1[live], p[live])
        live = _may_exceed(p, xs, ys, i0, i1, j0, j1, worst)
        i0, i1, j0, j1 = i0[live], i1[live], j0[live], j1[live]
    return worst


class _Axis:
    """One axis of check_covering's sample grid, cut into blocks: block b
    holds samples [b _BLOCK, (b + 1) _BLOCK), the last one possibly fewer,
    and spans lo[b] to hi[b]."""

    def __init__(self, s: np.ndarray):
        self.s = s
        self.n = -(-len(s) // _BLOCK)
        self.lo = s[::_BLOCK]
        self.hi = s[np.minimum(np.arange(1, self.n + 1) * _BLOCK, len(s)) - 1]

    def meeting(self, a: float, b: float) -> range:
        """The blocks whose span meets [a, b]."""
        return range(int(np.searchsorted(self.hi, a, "left")),
                     int(np.searchsorted(self.lo, b, "right")))

    def within(self, a: float, b: float) -> range:
        """The blocks whose span lies in [a, b]."""
        return range(int(np.searchsorted(self.lo, a, "left")),
                     int(np.searchsorted(self.hi, b, "right")))

    def cells(self, blocks: range, edges: list[float]) -> tuple[np.ndarray, np.ndarray]:
        """For blocks inside a square whose cells are cut at `edges`: each
        block's cell index, and its least distance to that cell's edges
        (negative when it crosses one)."""
        lo, hi = self.lo[blocks.start:blocks.stop], self.hi[blocks.start:blocks.stop]
        e = np.asarray(edges)
        i = np.clip(np.floor((lo - e[0]) / (e[1] - e[0])), 0, len(e) - 2).astype(np.intp)
        return i, np.minimum(lo - e[i], e[i + 1] - hi)


def _sq_gaps(s: np.ndarray, origin: float, step: float, n: int | None) -> np.ndarray:
    """The squared gap from each sample s to the nearest lattice coordinate
    origin + step * (a + 0.5), a in [0, n) (any integer a for n None), the
    coordinate made as _explicit_points makes it and the gap as
    _Grid._scan does."""
    a = np.floor((s - origin) / step - 0.5)
    gap = np.full(len(s), np.inf)
    # the nearest is a or a + 1: a is off by one only next to an integer,
    # and then that integer is the nearest
    for k in (0.0, 1.0):
        c = a + k if n is None else np.clip(a + k, 0, n - 1)
        d = origin + step * (c + 0.5) - s
        np.minimum(gap, d * d, out=gap)
    return gap


def _overlap(r: range, tile: slice) -> tuple[slice, slice] | None:
    """The blocks of r in the tile, as a slice of the tile and one of r."""
    lo, hi = max(r.start, tile.start), min(r.stop, tile.stop)
    if lo >= hi:
        return None
    return slice(lo - tile.start, hi - tile.start), slice(lo - r.start, hi - r.start)


class _Lattices:
    """The blocks of check_covering's sample grid whose nearest net points
    lie on one lattice, and the grid's maximum over them in closed form.

    Every sample of a block at least h/sqrt(2) inside a subdivision cell, h
    its spacing cell / n, lies within h/sqrt(2) of the cell's n x n centres
    and no nearer any other net point.  So does every sample of a block at
    least 1/sqrt(2) from every scheduled square, with the background lattice
    of unit-square centres.  Both depths are widened by a relative 1e-9 and
    a few ulps of the coordinates against rounding.  Over a product lattice
    the squared distance dx*dx + dy*dy is least where each term is least,
    and its maximum over a rectangle of samples is where each per-axis least
    term, DX and DY, is largest.  Rounding of -, *, + and sqrt is monotone,
    so sqrt(max DX + max DY) equals the grid scan's maximum over the
    rectangle bit for bit."""

    def __init__(self, net: Net, window: Rect, xs: np.ndarray, ys: np.ndarray):
        self.cols, self.rows = _Axis(xs), _Axis(ys)
        scale = max(abs(v) for v in (window.x0, window.y0, window.x1, window.y1))
        slack = 16.0 * math.ulp(scale + 2.0 * net.max_cell_spacing)
        far = (1.0 + 1e-9) / math.sqrt(2.0) + slack
        # per square, the blocks nearer than `far` to it; per square met,
        # the blocks inside it with their cells and margins, and the depth
        # each cell needs
        self.near, self.inside = [], []
        self.cell_max = 0.0   # the grid's maximum over the blocks inside cells
        for e, n_arr in zip(net.plan.schedule, net.counts):
            s = e.square
            self.near.append((self.cols.meeting(s.x0 - far, s.x1 + far),
                              self.rows.meeting(s.y0 - far, s.y1 + far)))
            cols, rows = self.cols.within(s.x0, s.x1), self.rows.within(s.y0, s.y1)
            if not (cols and rows):
                continue
            cell = e.side / e.m
            depth = cell / n_arr / math.sqrt(2.0) * (1.0 + 1e-9) + slack
            ex, ey = _cell_edges(e)
            (ci, mx), (cj, my) = self.cols.cells(cols, ex), self.rows.cells(rows, ey)
            self.inside.append((cols, ci, mx, rows, cj, my, depth))
            for i in np.unique(ci).tolist():
                for j in np.unique(cj).tolist():
                    a = cols.start + np.flatnonzero((ci == i) & (mx >= depth[i, j]))
                    b = rows.start + np.flatnonzero((cj == j) & (my >= depth[i, j]))
                    if len(a) and len(b):
                        n = int(n_arr[i, j])
                        dx = _sq_gaps(xs[a[0] * _BLOCK:(a[-1] + 1) * _BLOCK], ex[i], cell / n, n)
                        dy = _sq_gaps(ys[b[0] * _BLOCK:(b[-1] + 1) * _BLOCK], ey[j], cell / n, n)
                        self.cell_max = max(self.cell_max, float(np.sqrt(dx.max() + dy.max())))

    @functools.cached_property
    def _background(self) -> tuple[np.ndarray, np.ndarray]:
        """Per block of each axis, the largest squared gap of its samples to
        the background lattice."""
        return tuple(np.maximum.reduceat(_sq_gaps(a.s, 0.0, 1.0, None), np.arange(0, len(a.s), _BLOCK))
                     for a in (self.cols, self.rows))

    def resolve(self, tc: slice, tr: slice) -> tuple[np.ndarray, float]:
        """(done, value): the mask of the blocks of tile tc x tr resolved
        here, and the grid's maximum over those on the background (0 if
        none)."""
        done = np.ones((tc.stop - tc.start, tr.stop - tr.start), dtype=bool)
        for cols, rows in self.near:
            a, b = _overlap(cols, tc), _overlap(rows, tr)
            if a and b:
                done[a[0], b[0]] = False
        value = 0.0
        if done.any():
            bx, by = self._background
            value = float(np.sqrt((bx[tc, None] + by[None, tr])[done].max()))
        for cols, ci, mx, rows, cj, my, depth in self.inside:
            a, b = _overlap(cols, tc), _overlap(rows, tr)
            if a and b:
                need = depth[ci[a[1], None], cj[None, b[1]]]
                done[a[0], b[0]] |= (mx[a[1], None] >= need) & (my[None, b[1]] >= need)
        return done, value


def _may_exceed(p, xs, ys, i0, i1, j0, j1, worst):
    """Mask of the blocks whose farthest corner from p, times 1 + _SLACK,
    reaches worst.  No sample x of a block lies farther from the net than
    |x - p|, and no farther from p than the block's farthest corner."""
    ub = np.hypot(np.maximum(np.abs(p[:, 0] - xs[i0]), np.abs(xs[i1 - 1] - p[:, 0])),
                  np.maximum(np.abs(p[:, 1] - ys[j0]), np.abs(ys[j1 - 1] - p[:, 1])))
    return ub * (1.0 + _SLACK) >= worst


def _quarters(i0, i1, j0, j1, p):
    """The non-empty quarters of index blocks [i0, i1) x [j0, j1), each with
    its parent's row of p; a block one sample wide is halved along the other
    axis only."""
    im, jm = (i0 + i1 + 1) // 2, (j0 + j1 + 1) // 2
    qi0, qi1 = np.concatenate([i0, i0, im, im]), np.concatenate([im, im, i1, i1])
    qj0, qj1 = np.concatenate([j0, jm, j0, jm]), np.concatenate([jm, j1, jm, j1])
    keep = (qi0 < qi1) & (qj0 < qj1)
    return qi0[keep], qi1[keep], qj0[keep], qj1[keep], np.tile(p, (4, 1))[keep]


def measure_report(net: Net, plan: NetPlan, k: int) -> list[dict]:
    """Per-cell comparison of point count against the density integral for
    schedule entry k (1-based), read from the integrals build_net kept, so
    `plan` must be the net's own.  The floor construction guarantees
    |count - target| <= 2 sqrt(target) + 1."""
    if plan is not net.plan:
        raise ValueError("measure_report needs the plan the net was built from (net.plan)")
    if not (1 <= k <= len(plan.schedule)):
        raise ValueError("k outside schedule")
    counts, mass = net.counts[k - 1].tolist(), net.integrals[k - 1].tolist()
    xs, ys = _cell_edges(plan.schedule[k - 1])
    return [{"cell": (xs[i], ys[j], xs[i + 1], ys[j + 1]), "count": n * n,
             "target": target, "error": abs(n * n - target)}
            for i, (n_row, t_row) in enumerate(zip(counts, mass))
            for j, (n, target) in enumerate(zip(n_row, t_row))]


# ---------------------------------------------------------------------------
# CSV I/O

def net_to_csv(points: np.ndarray, tags: np.ndarray) -> str:
    pts, tags = np.asarray(points, dtype=float).reshape(-1, 2), np.asarray(tags)
    parts = ["x,y,tag\n"]
    for s in range(0, len(pts), _CSV_CHUNK):   # one chunk's Python objects at a time
        x, y = pts[s:s + _CSV_CHUNK].T.tolist()
        tag = ["background" if t == 0 else int(t) for t in tags[s:s + _CSV_CHUNK].tolist()]
        flat = [v for row in zip(x, y, tag) for v in row]
        parts.append(("{!r},{!r},{}\n" * len(x)).format(*flat))
    return "".join(parts)


def net_from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The (points, tags) of a net CSV: float coordinates, and an integer
    or `background` (0) tag per row.  It is read in chunks of whole lines,
    about _CSV_CHUNK rows of 32 characters each, and each chunk is parsed
    into arrays at once; a row that does not parse is a ValueError naming
    it."""
    text = text.strip()
    xs, ys, tags = [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=int)]
    done, start = 0, 0   # rows read, and where the next chunk starts
    while start >= 0:
        end = text.find("\n", start + 32 * _CSV_CHUNK)
        lines = text[start:None if end < 0 else end].splitlines()
        if start == 0:
            if not lines or lines[0].strip() != "x,y,tag":
                raise ValueError("bad net CSV header")
            del lines[0]
        if lines:
            for out, part in zip((xs, ys, tags), _csv_rows(lines, done)):
                out.append(part)
        done += len(lines)
        start = end + 1 if end >= 0 else -1
    pts = np.empty((done, 2))
    np.concatenate(xs, out=pts[:, 0])
    np.concatenate(ys, out=pts[:, 1])
    return pts, np.concatenate(tags)


def _csv_rows(lines: list[str], done: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and tag arrays of net CSV rows `lines`, the first of them
    row done + 1, with one split of them all: a newline field goes between
    rows, so a row that is not three fields moves a newline off its place."""
    cells = ",\n,".join(lines).split(",")
    try:
        if not (len(cells) == 4 * len(lines) - 1
                and cells[3::4].count("\n") == len(lines) - 1):
            raise ValueError
        x, y, tag = cells[0::4], cells[1::4], cells[2::4]
        value = {t: 0 if t == "background" else int(t) for t in set(tag)}
        return (np.fromiter(map(float, x), float, len(x)),
                np.fromiter(map(float, y), float, len(y)),
                np.fromiter(map(value.__getitem__, tag), int, len(tag)))
    except ValueError:
        raise ValueError(_bad_row(lines, done)) from None


def _bad_row(lines: list[str], done: int) -> str:
    """The error for the first line of `lines` that is not a net CSV row,
    `done` rows after the header."""
    for n, line in enumerate(lines, done + 1):
        try:
            x, y, tag = line.split(",")
            float(x), float(y), tag == "background" or int(tag)
        except ValueError:
            return f"bad net CSV row {n}: {line!r}"
    raise AssertionError("every line parses")
