"""Separated nets from density fields.

A plan schedules disjoint integer-vertex squares of geometrically growing
side along the diagonal; inside each square the reciprocal transplanted
density decides how many points each subdivision cell holds.  A net keeps
those counts and, like the unit lattice of integer-square centers outside
the squares, materializes its points per query window.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .density import DensityField, _distinct, _integrate_grid
from .geometry import Rect, Similarity, UNIT_SQUARE, _meeting_pairs, _runs, first_overlap


# (candidate, point) pairs of check_covering evaluated at once (a few dozen
# bytes of temporaries each)
_PAIR_BATCH = 1 << 15
_CSV_CHUNK = 1 << 14   # rows net_to_csv formats at once


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
            sq = e.square
            if isinstance(e.m, bool) or not isinstance(e.m, int) or e.m < 1:
                raise ValueError(f"schedule entry {n}: m must be an int >= 1, got {e.m!r}")
            if not all(float(v).is_integer() for v in (sq.x0, sq.y0, sq.x1, sq.y1)):
                raise ValueError(f"schedule entry {n}: {sq} has a corner off the integer grid")
            if not sq.width == sq.height == e.side:
                raise ValueError(f"schedule entry {n}: {sq} is not {e.side} x {e.side}")
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
        points, tags, k = _explicit_points(self._cells, box)
        return points[:k], tags[:k]

    @functools.cached_property
    def _cells(self) -> _Cells:
        """The table of the net's lattices, built on first use."""
        return _Cells(self.plan, self.counts)

    points = property(lambda self: self._fill[0], doc="explicit points inside the squares")
    tags = property(lambda self: self._fill[1], doc="schedule index (1-based) per explicit point")

    @functools.cached_property
    def max_cell_spacing(self) -> float:
        """Largest point spacing over all subdivision cells (>= 1 for the
        background)."""
        return float(self._cells.step.max(initial=1.0))

    def points_in_window(self, window: Rect) -> tuple[np.ndarray, np.ndarray]:
        """Explicit points plus lazily materialized background lattice
        centers inside the closed window.  Returns (points, tags); background
        points carry tag 0.  Explicit points come in the order of
        `self.points`, enumerated from the cells the window meets."""
        _check_finite(window)
        keep, x0, y0 = _background_mask(self._cells, window)
        gx, gy = np.nonzero(keep)
        gx, gy = gx + x0, gy + y0
        # the lattice centers go into the rows after the explicit points
        pts, tags, k = _explicit_points(self._cells, window, len(gx))
        end = k + len(gx)
        pts[k:end, 0], pts[k:end, 1], tags[k:end] = gx + 0.5, gy + 0.5, 0
        return pts[:end], tags[:end]


class _Cells:
    """The net's lattices as one table.  It has one row per subdivision cell,
    square by square and cell (i, j) by cell with i the outer index, which is
    the order of `Net.points`.  Row r is cell [x0, x1] x [y0, y1] of square
    tag (1-based), its edges from `_cell_edges`, and holds n x n points
    x0 + step * (a + 0.5), y0 + step * (b + 0.5), a, b in [0, n), with
    step = cell / n for the square's cell width `cell`; rect holds (x0, y0,
    x1, y1) per row, and lo and hi are its halves.  It also keeps the
    squares, and each as a row of `box`."""

    def __init__(self, plan: NetPlan, counts):
        self.box = np.array([(e.square.x0, e.square.y0, e.square.x1, e.square.y1)
                             for e in plan.schedule], dtype=float).reshape(-1, 4)
        # the integer corners NetPlan requires, read as ints
        self.squares = [Rect(*c) for c in self.box.astype(int).tolist()]
        cell = np.array([e.side / e.m for e in plan.schedule])
        m = np.array([e.m for e in plan.schedule], dtype=np.intp)
        lo, hi = [np.empty((0, 2))], [np.empty((0, 2))]
        for e in plan.schedule:
            xs, ys = (np.array(v) for v in _cell_edges(e))
            lo.append(np.column_stack([np.repeat(xs[:-1], e.m), np.tile(ys[:-1], e.m)]))
            hi.append(np.column_stack([np.repeat(xs[1:], e.m), np.tile(ys[1:], e.m)]))
        self.rect = np.concatenate([np.concatenate(lo), np.concatenate(hi)], axis=1)
        self.lo, self.hi = self.rect[:, :2], self.rect[:, 2:]
        (self.x0, self.y0), (self.x1, self.y1) = self.lo.T, self.hi.T
        self.tag = np.repeat(np.arange(1, len(m) + 1), m * m)
        self.n = np.concatenate([np.empty(0, dtype=np.intp)]
                                + [c.ravel() for c in counts]).astype(np.intp)
        self.step = np.repeat(cell, m * m) / self.n

    def meeting(self, x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
        """The rows whose closed cell meets [x0, x1] x [y0, y1]."""
        return np.flatnonzero((self.x1 >= x0) & (self.x0 <= x1) & (self.y1 >= y0) & (self.y0 <= y1))


def _check_finite(window: Rect) -> None:
    if not all(math.isfinite(v) for v in (window.x0, window.y0, window.x1, window.y1)):
        raise ValueError(f"window {window} has a non-finite coordinate")


def _cell_edges(e: ScheduleEntry) -> tuple[list[float], list[float]]:
    """The x and y edges of a schedule entry's m x m cells: cell (i, j) is
    [xs[i], xs[i+1]] x [ys[j], ys[j+1]], edge i at square.x0 + i * (side / m)."""
    steps = np.arange(e.m + 1) * (e.side / e.m)
    return (e.square.x0 + steps).tolist(), (e.square.y0 + steps).tolist()


def _window_range(window: Rect, box: np.ndarray, step: np.ndarray,
                  n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, end): per lattice of a table (box, step, n) and axis, the
    indices [first, end) of a in [0, n) whose coordinate origin + step *
    (a + 0.5), origin the box's corner (x0, y0), lies in the closed window;
    on an axis without such a coordinate first == end.  n has a column per
    axis, or one for both.  Each bound is the first index whose coordinate
    reaches an edge, the high edge taken as nextafter(hi, inf).  The
    estimate t = floor((edge - origin) / step - 0.5) lies at most two
    indices below it and never above it, so t steps up while its
    coordinate, made as `_explicit_points` makes it, lies below the edge,
    at most twice."""
    edge = np.array([[[window.x0, window.y0]], [[math.nextafter(window.x1, math.inf),
                                                  math.nextafter(window.y1, math.inf)]]])
    origin, h = box[:, :2], step[:, None]
    t = np.floor((edge - origin) / h - 0.5)
    for _ in range(2):
        t += origin + h * (t + 0.5) < edge
    first, end = np.minimum(np.maximum(t, 0), n).astype(np.intp)
    return first, end


def _explicit_points(cells: _Cells, window: Rect,
                     spare: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """(points, tags, k): the k explicit points in the closed window and their
    tags, in `Net.points` order, as the first k rows of arrays with at least
    `spare` rows more for the caller to fill.  The window's points of a
    lattice are the product of its x and y coordinates in the window, each
    written in place as one block."""
    r = cells.meeting(window.x0, window.y0, window.x1, window.y1)
    box, step = cells.rect[r], cells.step[r]
    a0, a1 = _window_range(window, box, step, cells.n[r, None])
    count = a1 - a0
    # run 2 j + k is axis k of row r[j]
    row, a = _runs(a0.ravel(), count.ravel())
    coords = box[:, :2].ravel()[row] + step[row >> 1] * (a + 0.5)
    la, lb = count.T
    size = int(la @ lb) + spare
    points, tags = np.empty((size, 2)), np.empty(size, dtype=int)
    k, c = 0, 0
    for tag, na, nb in zip(cells.tag[r].tolist(), la.tolist(), lb.tolist()):
        if na and nb:
            end = k + na * nb
            block = points[k:end].reshape(na, nb, 2)
            block[:, :, 0] = coords[c:c + na, None]
            block[:, :, 1] = coords[c + na:c + na + nb]
            tags[k:end] = tag
            k = end
        c += na + nb
    return points, tags, k


def _background_mask(cells: _Cells, window: Rect) -> tuple[np.ndarray, int, int]:
    """(keep, x0, y0): keep[i, j] is whether the unit square [x0 + i, x0 +
    i + 1] x [y0 + j, y0 + j + 1] has its centre in the closed window and
    no scheduled square contains it.  Each square clears the unit squares
    it contains from a mask over the window's, one slice per axis."""
    (x0, x1), (y0, y1) = (_centres(window.x0, window.x1), _centres(window.y0, window.y1))
    keep = np.ones((max(x1 - x0, 0), max(y1 - y0, 0)), dtype=bool)
    for s in cells.squares:
        # the g with s.x0 <= g and g + 1 <= s.x1, and the same in y
        keep[max(s.x0 - x0, 0):max(s.x1 - x0, 0), max(s.y0 - y0, 0):max(s.y1 - y0, 0)] = False
    return keep, x0, y0


def _centres(lo: float, hi: float) -> tuple[int, int]:
    """The integers g in [g0, g1) whose g + 0.5 lies in [lo, hi]."""
    g0, g1 = math.floor(lo), math.ceil(hi)
    return g0 + (g0 + 0.5 < lo), g1 - (g1 - 0.5 > hi)


def _near_lattices(cells: _Cells, x0: float, y0: float, x1: float,
                   y1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(box, step, n): product lattices holding every net point in
    [x0, x1] x [y0, y1].  They are the lattice table's rows whose cell meets
    it, then the background's unit-square centres in its integer box, cut
    into rectangles by the unit squares each scheduled square contains,
    each a product lattice of step 1.  Per lattice, box holds its rectangle
    x0, y0, x1, y1, whose corner (x0, y0) is its origin, and n has a column
    per axis."""
    r = cells.meeting(x0, y0, x1, y1)
    pieces = [Rect(math.floor(x0), math.floor(y0), math.ceil(x1), math.ceil(y1))]
    for sq in cells.squares:
        # the unit squares it contains, as _background_mask clears them
        pieces = [q for p in pieces for q in p.subtract(sq)]
    bg = np.array([(p.x0, p.y0, p.x1, p.y1) for p in pieces], dtype=float).reshape(-1, 4)
    box = np.concatenate([cells.rect[r], bg])
    step = np.concatenate([cells.step[r], np.ones(len(bg))])
    n = np.concatenate([cells.n[r, None].repeat(2, axis=1), (bg[:, 2:] - bg[:, :2]).astype(np.intp)])
    return box, step, n


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
        mass = _integrate_grid(box_k, inv_val, inv_default, *np.array(_cell_edges(e)))
        n_arr = np.floor(np.sqrt(mass)).astype(int)
        if not n_arr.all():
            raise ValueError(f"empty cell in square {idx}: plan invariant violated")
        counts.append(n_arr)
        integrals.append(mass)
    return Net(plan, tuple(counts), tuple(integrals))


def check_separation(net: Net, window: Rect) -> float:
    """Exact minimum pairwise distance over pairs with at least one point
    in the window, the full scan's value bit for bit.

    The net near the window is the product lattices of `_near_lattices`
    over the window widened by R: the table's cells, and the background's
    unit-square centres cut into rectangles by the scheduled squares,
    each a lattice of step 1 like any cell.  R = sqrt(2) s, s =
    net.max_cell_spacing, widened by a relative 1e-9 and a few ulps
    against rounding: every point of the plane is within s/sqrt(2) of the
    net, so a window point's nearest other point, a Voronoi neighbour,
    lies within twice that.  Per lattice and axis the window's points are
    an index range (`_window_range`), and their count decides whether the
    window holds 2 points.  Each lattice's points lie inside its box, and
    the boxes are interior-disjoint.

    On its own lattice a point's nearest other point is a neighbour on its
    row or column, which shares one coordinate, so the scan's distance
    sqrt(dx*dx + dy*dy) to it has one term exactly 0: over a lattice's
    window points the least is the least adjacent-coordinate gap over the
    window's index range widened by one index on each side
    (`_least_sq_gap`), from the coordinates as `_explicit_points` makes
    them.  A point at least its spacing h inside its lattice's box (index
    in [1, n - 1) on both axes) lies 1.5 h or more from the box's edge,
    and every point of another lattice lies beyond that edge, so nothing
    nearer exists.  Only a lattice whose window range reaches index 0 or
    n - 1 on an axis enters pairs with other lattices: those whose boxes
    meet its box when both are widened by R / 2 (`_meeting_pairs`), which
    hold every point within R of it.  Over a pair, A's window points and
    all of B's points are products of per-axis coordinates, and
    fl(dx)^2 + fl(dy)^2 is least where each term is least, rounding being
    monotone, so the pair's least distance is sqrt(min DX + min DY) with
    the per-axis minima taken apart (`_pair_least_sq`).  No point is
    gathered and no mask over the window is made, so the work and the
    memory follow the lattices' edges near the window, not its area."""
    _check_finite(window)
    s = net.max_cell_spacing
    scale = max(abs(v) for v in (window.x0, window.y0, window.x1, window.y1))
    reach = math.sqrt(2.0) * s * (1.0 + 1e-9) + 16.0 * math.ulp(scale + 2.0 * s)
    box, step, n = _near_lattices(net._cells, window.x0 - reach, window.y0 - reach,
                                  window.x1 + reach, window.y1 + reach)
    first, end = _window_range(window, box, step, n)
    count = end - first
    if int(count[:, 0] @ count[:, 1]) < 2:
        raise ValueError("window contains fewer than 2 points")
    # each lattice's window indices widened by one on each side; empty for a
    # lattice without window points
    some = count.all(axis=1)
    a0 = np.maximum(first - 1, 0)
    best = _least_sq_gap(box[:, :2], step, a0, np.where(some[:, None], np.minimum(end + 1, n), a0))
    ring = some & ((first == 0) | (end == n)).any(axis=1)
    if ring.any():
        wide = box + np.array([-0.5, -0.5, 0.5, 0.5]) * reach
        a, b = (np.concatenate(v) for v in zip(*_meeting_pairs(wide)))
        a, b = np.concatenate([a[ring[a]], b[ring[b]]]), np.concatenate([b[ring[a]], a[ring[b]]])
        if len(a):
            best = _pair_least_sq(box, step, n, first, count, a, b, best)
    return math.sqrt(best)


def _least_sq_gap(origin: np.ndarray, step: np.ndarray, a0: np.ndarray,
                  a1: np.ndarray) -> float:
    """The least squared gap d * d, d = c[a + 1] - c[a], between adjacent
    lattice coordinates c[a] = origin + step * (a + 0.5) with a and a + 1
    in [a0, a1), over the rows and both axes (origin, a0 and a1 per row and
    axis), or inf if there is no such pair.  The coordinates rise along a row, so d >= 0 and the least d
    squared is the least d * d; they are made in place, a few arrays of
    their length at a time."""
    row, a = _runs(a0.ravel(), (a1 - a0).ravel())
    c = a + 0.5
    del a
    c *= step[row >> 1]
    c += origin.ravel()[row]
    d = float((c[1:] - c[:-1])[row[1:] == row[:-1]].min(initial=math.inf))
    return d * d


def _pair_least_sq(box: np.ndarray, step: np.ndarray, n: np.ndarray, first: np.ndarray,
                   count: np.ndarray, a: np.ndarray, b: np.ndarray, best: float) -> float:
    """The smaller of best and the least squared distance DX + DY from a
    point of lattice a[p] with index in [first, first + count) of its row
    (a column per axis, each count at least 1) to a point of lattice b[p],
    over the pairs p of lattices of a `_near_lattices` table (box, step,
    n).  On a product lattice each term is least apart: DX is the least
    `_sq_gaps` from A's x coordinates, made as `_explicit_points` makes
    them, to B's, and rounding is monotone, so the sum is the scan's
    least squared distance bit for bit.  Per axis only A's coordinates
    inside B's box, and the nearest one on each side of it, can be
    nearest: from below the box, the gap to B's grows as a coordinate
    falls.  The sum is at least either term, so each pair's axis with
    fewer such coordinates is taken first, and the other only where the
    first leaves the pair below best."""
    # per pair and axis, A's indices [lo, lo + size): those whose interval
    # [o + a h, o + (a + 1) h] may meet B's box, and one more on each side
    o, h, end = box[a, :2], step[a], first[a] + count[a]
    lo = np.clip(np.floor((box[b, :2] - o) / h[:, None]) - 1, first[a], end - 1).astype(np.intp)
    size = np.clip(np.floor((box[b, 2:] - o) / h[:, None]) + 2, lo + 1, end).astype(np.intp) - lo

    def least(p, k):
        # per pair p[j], the least squared gap on its axis k[j]
        m = size[p, k]
        run, i = _runs(lo[p, k], m)
        q, x = p[run], k[run]
        d = _sq_gaps(o[q, x] + h[q] * (i + 0.5), box[b[q], x], step[b[q]], n[b[q], x])
        return np.minimum.reduceat(d, np.cumsum(m) - m)

    k = np.argmin(size, axis=1)
    d = least(np.arange(len(a)), k)
    p = np.flatnonzero(d < best)
    if len(p):
        best = min(best, float((d[p] + least(p, 1 - k[p])).min()))
    return best


def _sq_gaps(s: np.ndarray, origin, step, n) -> np.ndarray:
    """The squared gap from each coordinate s to the nearest lattice
    coordinate origin + step * (a + 0.5), a in [0, n), the coordinate made
    as _explicit_points makes it and the gap squared as a scan over the
    points squares dx or dy, so that the sum of an x and a y gap is the
    scan's squared distance bit for bit.  origin, step and n are numbers,
    or arrays that broadcast against s."""
    a = s - origin
    a /= step
    a -= 0.5
    np.floor(a, out=a)
    # the nearest is a or a + 1: a is off by one only next to an integer,
    # and then that integer is the nearest; each becomes its squared gap
    b = a + 1.0
    for c in (a, b):
        np.minimum(np.maximum(c, 0, out=c), n - 1, out=c)
        c += 0.5
        c *= step
        c += origin
        c -= s
        c *= c
    return np.minimum(a, b, out=a)


def check_covering(net: Net, window: Rect) -> float:
    """The covering radius of the closed window: the largest distance from
    a point of it to the net, to a few ulps of the coordinates.

    Every point of the plane lies within reach = s/sqrt(2) of the net, s =
    net.max_cell_spacing (reach widened by a relative 1e-9 and a few ulps),
    so the lattices of `_near_lattices` over the window widened by reach
    hold every window point's nearest net point.  Their boxes cut the
    window into regions, each within h/sqrt(2) of its box's own lattice, h
    its spacing.  On a product lattice the squared distance DX + DY is
    largest where each per-axis term is: at a midpoint between consecutive
    coordinates, where it is (h/2)^2 up to the coordinates' rounding, or on
    an axis with no midpoint in the region at its larger end.  So U =
    sqrt(max DX + max DY), from the midpoint nearest the region's middle or
    the ends, bounds the region's distances to the net.  A region with a
    midpoint inside on both axes attains its U there, h inside the box, so
    no other lattice is nearer.  The radius is the largest of those U
    unless another region's U exceeds it by over 2 ulps; only such regions
    go to `_arrangement_max`, the largest U first."""
    _check_finite(window)
    s = net.max_cell_spacing
    ulp = math.ulp(max(abs(v) for v in (window.x0, window.y0, window.x1, window.y1)) + 2.0 * s)
    reach = s * (1.0 + 1e-9) / math.sqrt(2.0) + 16.0 * ulp
    box, step, n = _near_lattices(net._cells, window.x0 - reach, window.y0 - reach,
                                  window.x1 + reach, window.y1 + reach)
    lo = np.maximum(box[:, :2], [window.x0, window.y0])
    hi = np.minimum(box[:, 2:], [window.x1, window.y1])
    k = np.flatnonzero((lo <= hi).all(axis=1))
    lo, hi, origin, h, size = lo[k], hi[k], box[k, :2], step[k, None], n[k]
    # per region and axis, the coordinates c0, c1 whose midpoint lies nearest
    # the middle of [lo, hi], and the squared half gap between them
    a = np.clip(np.rint(((lo + hi) / 2 - origin) / h) - 1, 0, size - 2)
    c0, c1 = origin + h * (a + 0.5), origin + h * (a + 1.5)
    mid, g_mid = (c0 + c1) / 2, ((c1 - c0) / 2) ** 2
    inside = (size > 1) & (lo <= mid) & (mid <= hi)
    full = inside.all(axis=1)
    worst = math.sqrt(float(g_mid[full].sum(axis=1).max(initial=0.0)))
    # the other regions, bounded at the larger end of an axis without a
    # midpoint inside, resolved where they may beat that
    q = np.flatnonzero(~full)
    if not len(q):
        return worst
    g_lo, g_hi = _sq_gaps(np.stack([lo[q], hi[q]]), origin[q], h[q], size[q])
    bound = np.sqrt(np.where(inside[q], g_mid[q], np.maximum(g_lo, g_hi)).sum(axis=1))
    for r in np.argsort(-bound, kind="stable").tolist():
        if bound[r] <= worst + 2.0 * ulp:
            break
        worst = _arrangement_max(box, step, n, lo[q[r]], hi[q[r]], bound[r] + 2.0 * ulp, worst)
    return worst


def _arrangement_max(box: np.ndarray, step: np.ndarray, n: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, near: float, worst: float) -> float:
    """The larger of worst and the largest distance to the net over the
    rectangle [lo, hi], from a `_near_lattices` table (box, step, n) that
    holds every net point within `near` of it, as far as any of its points
    lies from the net.  Each axis is cut at the midpoints between the
    coordinates of every lattice whose box lies within near of it, so in a
    cell of that arrangement each has one nearest point.  Cells where the
    least distance from those to the cell's farthest corner cannot exceed
    worst are skipped; the others go to `_cell_max` with the points nearer
    the cell than that bound, the largest bound first, about _PAIR_BATCH
    (candidate, point) pairs at a time."""
    k = np.flatnonzero(((box[:, :2] - near <= hi) & (box[:, 2:] + near >= lo)).all(axis=1))
    # per axis the cells' intervals [e0, e1], and per lattice and interval its
    # nearest coordinate q and squared gaps to the far end and to the interval
    axes = []
    for a in (0, 1):
        o, h, size = box[k, a], step[k], n[k, a]
        j0 = np.clip(np.floor((lo[a] - o) / h), 1, size)
        j1 = np.clip(np.floor((hi[a] - o) / h) + 2, 1, size)
        row, j = _runs(j0.astype(np.intp), (j1 - j0).astype(np.intp))
        c = o[row] + h[row] * j
        e = _distinct(np.concatenate([[lo[a], hi[a]], c[(c > lo[a]) & (c < hi[a])]]))
        e0, e1 = (e[:-1], e[1:]) if len(e) > 1 else (e, e)
        i = np.clip(np.floor(((e0 + e1) / 2 - o[:, None]) / h[:, None]), 0, size[:, None] - 1)
        q = o[:, None] + h[:, None] * (i + 0.5)
        d0, d1 = (e0 - q) ** 2, (e1 - q) ** 2
        axes.append((e0, e1, q, np.maximum(d0, d1),
                     np.where((e0 <= q) & (q <= e1), 0.0, np.minimum(d0, d1))))
    (x0, x1, qx, fx, nx), (y0, y1, qy, fy, ny) = axes
    b = np.full((len(x0), len(y0)), np.inf)
    for u, v in zip(fx, fy):
        np.minimum(b, u[:, None] + v, out=b)
    ci, cj = np.nonzero(b > worst * worst)
    order = np.argsort(-b[ci, cj], kind="stable")
    ci, cj, b = ci[order], cj[order], b[ci, cj][order]
    close = nx[:, ci] + ny[:, cj]
    m = int((close <= b).sum(axis=0).max(initial=1))
    pick = np.argsort(close, axis=0, kind="stable")[:m]
    batch = max(1, _PAIR_BATCH // ((4 + 4 * math.comb(m, 2) + math.comb(m, 3)) * m))
    for s in range(0, len(ci), batch):
        if b[s] <= worst * worst:
            break
        c, r, p = ci[s:s + batch], cj[s:s + batch], pick[:, s:s + batch]
        worst = max(worst, _cell_max(x0[c], x1[c], y0[r], y1[r], qx[p, c], qy[p, r]))
    return worst


def _cell_max(x0: np.ndarray, x1: np.ndarray, y0: np.ndarray, y1: np.ndarray, px: np.ndarray,
              py: np.ndarray) -> float:
    """The largest least distance from a point of a cell [x0[c], x1[c]] x
    [y0[c], y1[c]] to its points (px[i, c], py[i, c]): at a corner, where
    the bisector of two points crosses an edge, or at the circumcentre of
    three inside the cell.  A candidate outside its cell (or not finite)
    is replaced by the corner (x0, y0)."""
    i, j = np.triu_indices(len(px), 1)
    a, b, c = np.array(list(itertools.combinations(range(len(px)), 3)),
                       dtype=np.intp).reshape(-1, 3).T
    # the bisectors on the vertical edges ex and the horizontal edges ey,
    # and the circumcentres from the first point of each three
    ex, ey = np.stack([x0, x1])[:, None], np.stack([y0, y1])[:, None]
    mx, my, dx, dy = (px[i] + px[j]) / 2, (py[i] + py[j]) / 2, px[j] - px[i], py[j] - py[i]
    bx, by, ux, uy = px[b] - px[a], py[b] - py[a], px[c] - px[a], py[c] - py[a]
    b2, u2, d = bx * bx + by * by, ux * ux + uy * uy, 2.0 * (bx * uy - by * ux)
    shape = (-1, len(x0))
    with np.errstate(all="ignore"):
        on_x, on_y = my - (ex - mx) * dx / dy, mx - (ey - my) * dy / dx
        cx = np.concatenate([np.stack([x0, x0, x1, x1]), np.repeat(ex, len(i), 1).reshape(shape),
                             on_y.reshape(shape), px[a] + (uy * b2 - by * u2) / d])
        cy = np.concatenate([np.stack([y0, y1, y0, y1]), on_x.reshape(shape),
                             np.repeat(ey, len(i), 1).reshape(shape),
                             py[a] + (bx * u2 - ux * b2) / d])
    ok = (x0 <= cx) & (cx <= x1) & (y0 <= cy) & (cy <= y1)
    cx, cy = np.where(ok, cx, x0), np.where(ok, cy, y0)
    d = ((cx[:, None] - px) ** 2 + (cy[:, None] - py) ** 2).min(axis=1)
    return math.sqrt(float(d.max()))


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
    """The net CSV of (points, tags): a header, then per point its x and y
    as `repr` writes them and its tag, `background` for 0.  Per
    _CSV_CHUNK rows, each distinct coordinate (by its bit pattern, so -0.0
    stays apart from 0.0) and each distinct tag is formatted once."""
    pts, tags = np.asarray(points, dtype=float).reshape(-1, 2), np.asarray(tags)
    parts = ["x,y,tag\n"]
    for s in range(0, len(pts), _CSV_CHUNK):   # one chunk's Python objects at a time
        bits, tag = pts[s:s + _CSV_CHUNK].view(np.int64), tags[s:s + _CSV_CHUNK]
        row = np.empty((len(bits), 6), dtype=object)
        row[:, 1], row[:, 3], row[:, 5] = ",", ",", "\n"
        u = _distinct(bits)
        row[:, 0:3:2] = np.array(list(map(repr, u.view(float).tolist())),
                                 dtype=object)[np.searchsorted(u, bits)]
        u = _distinct(tag)
        row[:, 4] = np.array(["background" if t == 0 else str(int(t)) for t in u.tolist()],
                             dtype=object)[np.searchsorted(u, tag)]
        parts.append("".join(row.ravel().tolist()))
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
