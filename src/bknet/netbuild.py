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

from .density import DensityField, _distinct, _integrate
from .geometry import Rect, Similarity, UNIT_SQUARE, _meeting_pairs, _runs, first_overlap


# (query, lattice) pairs of both window checks, and (candidate, point) pairs
# of check_covering, evaluated at once (a few dozen bytes of temporaries each)
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
    step = cell / n for the square's cell width `cell`; lo holds (x0, y0)
    and hi (x1, y1) per row.  It also keeps the squares, and each as a row
    of `box`, and the last window's spans."""

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
        self.lo, self.hi = np.concatenate(lo), np.concatenate(hi)
        (self.x0, self.y0), (self.x1, self.y1) = self.lo.T, self.hi.T
        self.tag = np.repeat(np.arange(1, len(m) + 1), m * m)
        self.n = np.concatenate([np.empty(0, dtype=np.intp)]
                                + [c.ravel() for c in counts]).astype(np.intp)
        self.step = np.repeat(cell, m * m) / self.n
        self._last = None

    def meeting(self, x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
        """The rows whose closed cell meets [x0, x1] x [y0, y1]."""
        return np.flatnonzero((self.x1 >= x0) & (self.x0 <= x1) & (self.y1 >= y0) & (self.y0 <= y1))

    def spans(self, window: Rect) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(r, first, count, coords): the rows r whose cell meets the window,
        and per row and axis the lattice coordinates in the window, as in
        `_lattice_span`.  The table keeps the last window's."""
        if self._last is None or self._last[0] != window:
            r = self.meeting(window.x0, window.y0, window.x1, window.y1)
            self._last = (window, r, *_lattice_span(np.array([window.x0, window.y0]),
                                                    np.array([window.x1, window.y1]),
                                                    self.lo[r], self.step[r], self.n[r]))
        return self._last[1:]


def _check_finite(window: Rect) -> None:
    if not all(math.isfinite(v) for v in (window.x0, window.y0, window.x1, window.y1)):
        raise ValueError(f"window {window} has a non-finite coordinate")


def _cell_edges(e: ScheduleEntry) -> tuple[list[float], list[float]]:
    """The x and y edges of a schedule entry's m x m cells: cell (i, j) is
    [xs[i], xs[i+1]] x [ys[j], ys[j+1]], edge i at square.x0 + i * (side / m)."""
    steps = np.arange(e.m + 1) * (e.side / e.m)
    return (e.square.x0 + steps).tolist(), (e.square.y0 + steps).tolist()


def _lattice_span(lo: np.ndarray, hi: np.ndarray, origin: np.ndarray, step: np.ndarray,
                  n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row and axis, the lattice coordinates origin + step * (a + 0.5),
    a in [0, n), that lie in [lo, hi] of that axis: (first such a, their
    count, the coordinates), first and count as (rows, 2) arrays and the
    coordinates of row 0's x, row 0's y, row 1's x and so on one after
    another.  Only the a whose interval [origin + a step, origin + (a+1)
    step] may meet [lo, hi] are made."""
    h, m = step[:, None], n[:, None]
    first = np.minimum(np.maximum(np.floor((lo - origin) / h) - 1, 0), m).astype(np.intp).ravel()
    stop = np.minimum(np.maximum(np.floor((hi - origin) / h) + 2, 0), m).astype(np.intp).ravel()
    # run 2 r + k is axis k of row r
    row, a = _runs(first, np.maximum(stop - first, 0))
    c = origin.ravel()[row] + step[row >> 1] * (a + 0.5)
    axis = row & 1
    below, keep = c < lo[axis], (c >= lo[axis]) & (c <= hi[axis])
    return ((first + np.bincount(row[below], minlength=len(first))).reshape(-1, 2),
            np.bincount(row[keep], minlength=len(first)).reshape(-1, 2), c[keep])


def _explicit_points(cells: _Cells, window: Rect,
                     spare: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """(points, tags, k): the k explicit points in the closed window and their
    tags, in `Net.points` order, as the first k rows of arrays with at least
    `spare` rows more for the caller to fill.  The window's points of a
    lattice are the product of its x and y coordinates in the window, each
    written in place as one block."""
    r, _, count, coords = cells.spans(window)
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


def _near_squares(cells: _Cells, keep: np.ndarray, x0: int,
                  y0: int) -> tuple[np.ndarray, np.ndarray]:
    """The centres (x, y), made as `Net.points_in_window` makes them, of the
    unit squares kept in a `_background_mask` (keep, x0, y0) that lie
    nearer than 1 to a scheduled square along both axes, each once.  Each
    square reads and then clears its slice of keep, which afterwards marks
    only the centres at least 1 from every square."""
    xs, ys = [np.empty(0)], [np.empty(0)]
    for s in cells.squares:
        # the g with g + 0.5 in (s.x0 - 1, s.x1 + 1), and the same in y
        a0, a1 = max(s.x0 - 1 - x0, 0), max(s.x1 + 1 - x0, 0)
        b0, b1 = max(s.y0 - 1 - y0, 0), max(s.y1 + 1 - y0, 0)
        part = keep[a0:a1, b0:b1]
        if part.size:
            gx, gy = np.nonzero(part)
            xs.append(gx + (a0 + x0) + 0.5)
            ys.append(gy + (b0 + y0) + 0.5)
            part[:] = False
    return np.concatenate(xs), np.concatenate(ys)


def _centres(lo: float, hi: float) -> tuple[int, int]:
    """The integers g in [g0, g1) whose g + 0.5 lies in [lo, hi]."""
    g0, g1 = math.floor(lo), math.ceil(hi)
    return g0 + (g0 + 0.5 < lo), g1 - (g1 - 0.5 > hi)


def _near_lattices(cells: _Cells, x0: float, y0: float, x1: float,
                   y1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, box, step, n): product lattices holding every net point in
    [x0, x1] x [y0, y1].  They are the lattice table's rows whose cell meets
    it, then the background's unit-square centres in its integer box, cut
    into rectangles by the unit squares each scheduled square contains,
    each a product lattice of step 1.  Per lattice, box holds its rectangle
    x0, y0, x1, y1, whose corner (x0, y0) is its origin, and n has a column
    per axis; rows are the table rows of the first len(rows) lattices."""
    r = cells.meeting(x0, y0, x1, y1)
    pieces = [Rect(math.floor(x0), math.floor(y0), math.ceil(x1), math.ceil(y1))]
    for sq in cells.squares:
        # the unit squares it contains, as _background_mask clears them
        pieces = [q for p in pieces for q in p.subtract(sq)]
    bg = np.array([(p.x0, p.y0, p.x1, p.y1) for p in pieces], dtype=float).reshape(-1, 4)
    box = np.concatenate([np.column_stack([cells.lo[r], cells.hi[r]]), bg])
    step = np.concatenate([cells.step[r], np.ones(len(bg))])
    n = np.concatenate([np.column_stack([cells.n[r], cells.n[r]]),
                        (bg[:, 2:] - bg[:, :2]).astype(np.intp)])
    return r, box, step, n


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
    in the window.

    A net point's nearest point of its own lattice is a neighbour on its
    row or column.  A row shares one y and a column one x, so the scan's
    distance sqrt(dx*dx + dy*dy) to such a neighbour has one term exactly
    0: over the window's points of a lattice, the least is the least
    adjacent-coordinate gap over the window's index range widened by one
    index on each side, taken from the coordinates as `_explicit_points`
    makes them, and equals the scan bit for bit.  A point at least its
    spacing h inside its subdivision cell (lattice index a and b in [1, n -
    1)) lies 1.5 h or more from the cell edge, and every point of another
    lattice lies beyond that edge, so nothing nearer exists.  A background
    centre at least 1 from every scheduled square has its nearest other
    points at exactly 1: the squares' points lie inside them.

    Only the other window points are queried for points of other
    lattices: each lattice's outer ring (index 0 or n - 1 on an axis),
    listed from the lattice table's rows and coordinates in the window
    (`_ring`), and the background centres nearer than 1 to a square
    (`_near_squares`).  Each such point's nearest other point lies within R
    = sqrt(2) s, s = net.max_cell_spacing: every point of the plane is
    within s/sqrt(2) of the net, so a Voronoi neighbour is within twice
    that.  R is widened by a relative 1e-9 and a few ulps against rounding.
    The lattices within R of the window are those of `_near_lattices`, and
    `_cross_nearest` resolves the queries over them.  A background
    centre's own rectangle of that table gives exactly 1 when it holds 2
    centres along an axis, and its other rectangles count as other
    lattices."""
    _check_finite(window)
    cells = net._cells
    r, first, count, coords = cells.spans(window)
    keep, gx0, gy0 = _background_mask(cells, window)
    if int(count[:, 0] @ count[:, 1]) + int(np.count_nonzero(keep)) < 2:
        raise ValueError("window contains fewer than 2 points")
    best = math.inf
    # per lattice with window points and axis, the window's indices [first,
    # first + count) and their neighbours, [a0, a1)
    n = cells.n[r][:, None]
    some = (count > 0).all(axis=1)[:, None]
    gaps = (some & (n > 1)).ravel()
    if gaps.any():
        a0, a1 = np.maximum(first - 1, 0), np.minimum(first + count + 1, n)
        best = math.sqrt(_least_sq_gap(cells.lo[r[gaps]], cells.step[r[gaps]], a0[gaps], a1[gaps]))
    qx, qy = _near_squares(cells, keep, gx0, gy0)
    if keep.any():
        best = min(best, 1.0)
    # per lattice and axis, whether index 0 and n - 1 are among the window's
    lo, hi = some & (first == 0), some & (first + count == n) & (n > 1)
    if not (lo.any() or hi.any() or len(qx)):
        return best
    x, y, row = _ring(lo, hi, count, coords)
    s = net.max_cell_spacing
    scale = max(abs(v) for v in (window.x0, window.y0, window.x1, window.y1))
    reach = math.sqrt(2.0) * s * (1.0 + 1e-9) + 16.0 * math.ulp(scale + 2.0 * s)
    rows, box, step, size = _near_lattices(cells, window.x0 - reach, window.y0 - reach,
                                           window.x1 + reach, window.y1 + reach)
    # each background centre's rectangle, the one that holds it
    bg = box[len(rows):]
    piece = len(rows) + np.nonzero((bg[:, 0] < qx[:, None]) & (qx[:, None] < bg[:, 2])
                                   & (bg[:, 1] < qy[:, None]) & (qy[:, None] < bg[:, 3]))[1]
    if (size[piece] > 1).any():
        best = min(best, 1.0)
    own = np.concatenate([np.searchsorted(rows, r[row]), piece])
    return min(best, float(_cross_nearest(box, step, size, reach, np.concatenate([x, qx]),
                                          np.concatenate([y, qy]), own).min()))


def _ring(lo: np.ndarray, hi: np.ndarray, count: np.ndarray,
          coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, row): the window points of each lattice whose index is 0 or
    n - 1 on an axis, and the row of `_Cells.spans` each belongs to, from
    its count and coords and, per row and axis, whether index 0 (lo) and
    n - 1 (hi) lie in the window.  They are runs of coordinates: per row
    the columns a = 0 and n - 1, then the rows b = 0 and n - 1 without
    those columns, so each point comes once and the work is the ring's,
    not the window's."""
    start = (np.cumsum(count) - count.ravel()).reshape(-1, 2)
    end = start + count
    xy, rows = ([], []), []
    for k, v0, v1 in ((0, start[:, 1], end[:, 1]),
                      (1, start[:, 0] + lo[:, 0], end[:, 0] - hi[:, 0])):
        e = np.concatenate([np.flatnonzero(lo[:, k]), np.flatnonzero(hi[:, k])])
        run, a = _runs(v0[e], (v1 - v0)[e])
        xy[k].append(coords[np.concatenate([start[lo[:, k], k], end[hi[:, k], k] - 1])[run]])
        xy[1 - k].append(coords[a])
        rows.append(e[run])
    return np.concatenate(xy[0]), np.concatenate(xy[1]), np.concatenate(rows)


def _least_sq_gap(origin: np.ndarray, step: np.ndarray, a0: np.ndarray,
                  a1: np.ndarray) -> float:
    """The least squared gap d * d, d = c[a + 1] - c[a], between adjacent
    lattice coordinates c[a] = origin + step * (a + 0.5) with a and a + 1
    in [a0, a1), over the rows and both axes (origin, a0 and a1 per row and
    axis)."""
    row, a = _runs(a0.ravel(), (a1 - a0).ravel())
    c = origin.ravel()[row] + step[row >> 1] * (a + 0.5)
    d = (c[1:] - c[:-1])[row[1:] == row[:-1]]
    return float((d * d).min())


def _cross_nearest(box: np.ndarray, step: np.ndarray, n: np.ndarray, reach: float,
                   x: np.ndarray, y: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per query (x[j], y[j]), a point of lattice own[j] of a
    `_near_lattices` table (box, step, n), the least distance to the points
    of the table's other lattices whose box lies nearer than reach to that
    lattice's box (inf if there are none).  The pairs of lattices are
    `_meeting_pairs` of the boxes widened by reach / 2, and the (query,
    lattice) pairs they give are evaluated _PAIR_BATCH at a time.  On a
    product lattice a query's squared distance dx*dx + dy*dy is least where
    each term is least, DX and DY from `_sq_gaps`, so sqrt(min(DX + DY))
    equals the scan's distance bit for bit."""
    wide = box + np.array([-0.5, -0.5, 0.5, 0.5]) * reach
    a, b = (np.concatenate(v) for v in zip(*_meeting_pairs(wide)))
    src = np.concatenate([a, b])
    other = np.concatenate([b, a])[np.argsort(src)]
    deg = np.bincount(src, minlength=len(box))
    # query j has the pairs [end[j] - per[j], end[j]) of all, and pair p
    # of them is lattice other[first[j] + p]
    per = deg[own]
    end = np.cumsum(per)
    first = (np.cumsum(deg) - deg)[own] - (end - per)
    least = np.full(len(x), np.inf)
    for p0 in range(0, int(end[-1]), _PAIR_BATCH):
        p = np.arange(p0, min(p0 + _PAIR_BATCH, int(end[-1])))
        j = np.searchsorted(end, p, side="right")
        k = other[first[j] + p]
        d = _sq_gaps(x[j], box[k, 0], step[k], n[k, 0])
        d += _sq_gaps(y[j], box[k, 1], step[k], n[k, 1])
        # a query's pairs are one run of p
        run = np.flatnonzero(np.diff(j, prepend=-1))
        least[j[run]] = np.minimum(least[j[run]], np.minimum.reduceat(d, run))
    return np.sqrt(least, out=least)


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
    the ends, bounds the region's distances to the net.  Where it is
    attained the distance to all the lattices is one the window attains: U
    itself at a midpoint on both axes, which lies h inside the box, else
    the least of U and `_cross_nearest`, asked only where U may beat the
    largest of the former.  The radius is the largest of these unless a
    region's U exceeds it by over 2 ulps; only such regions go to
    `_arrangement_max`, the largest U first."""
    _check_finite(window)
    s = net.max_cell_spacing
    ulp = math.ulp(max(abs(v) for v in (window.x0, window.y0, window.x1, window.y1)) + 2.0 * s)
    reach = s * (1.0 + 1e-9) / math.sqrt(2.0) + 16.0 * ulp
    _, box, step, n = _near_lattices(net._cells, window.x0 - reach, window.y0 - reach,
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
    # midpoint inside, where they may beat that
    q = np.flatnonzero(~full)
    if not len(q):
        return worst
    g_lo, g_hi = _sq_gaps(np.stack([lo[q], hi[q]]), origin[q], h[q], size[q])
    bound = np.sqrt(np.where(inside[q], g_mid[q], np.maximum(g_lo, g_hi)).sum(axis=1))
    live = bound > worst + 2.0 * ulp
    if not live.any():
        return worst
    q, bound, g_lo, g_hi = q[live], bound[live], g_lo[live], g_hi[live]
    at = np.where(inside[q], mid[q], np.where(g_lo >= g_hi, lo[q], hi[q])).T
    value = np.minimum(bound, _cross_nearest(box, step, n, reach, *at, k[q]))
    worst = max(worst, float(value.max()))
    for r in np.argsort(-bound, kind="stable").tolist():
        if bound[r] > worst + 2.0 * ulp:
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
