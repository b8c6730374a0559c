"""Stretch-minimization experiment harness.

Coordinate descent over the vertex images of a piecewise-affine map on
the thin checkerboard rectangle, minimizing the maximum marked-pair
stretch ratio plus a Jacobian penalty, subject to a global Lipschitz cap.
Probes, at desk scale, whether maps whose Jacobian tracks the
checkerboard must stretch some marked pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import hypot, sqrt

import numpy as np

from .certificate import CertificateConstants, StretchReport, evaluate_stretch, marked_grid
from .density import DensityField
from .geometry import Rect
from .plmap import PLMap, _centroid_densities, _jacobians, pl_metrics

JAC_PENALTY = 1.0e3
_BLOCK = 1024                   # search steps per block of random draws


@dataclass(frozen=True)
class SearchResult:
    plmap: PLMap
    stretch: StretchReport
    trace: tuple[float, ...]     # objective after each accepted move
    objective: float
    lip: float
    mismatch_area: float


_U = 2.0 ** -53                 # unit roundoff of a float
# math.hypot and np.hypot are each within one ulp (2u) of the exact
# length, so np.hypot >= math.hypot * (1 - 4u); a product with this
# factor, rounded, stays below math.hypot * (1 - 7u)
_HYPOT_LO = 1.0 - 8 * _U


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error bound of k
    roundings in a row."""
    return k * _U / (1.0 - k * _U)


@cache
def _vertex_table(nx: int, ny: int) -> tuple:
    """For each vertex of the nx x ny grid, in vertex order: its triangles,
    as (triangle, q00, q11, third corner, lower) with the third corner q10
    of a lower triangle (q00, q10, q11) or q01 of an upper one (q00, q11,
    q01), and its marked pairs, as (pair, left vertex).  Built once per
    shape and kept: search_min_stretch's desk limit (N <= 16, M <= 8)
    bounds the shapes to 128.  It is tuples throughout, so no caller can
    change a shared one."""
    nx1 = nx + 1
    table = []
    for j in range(ny + 1):
        for i in range(nx1):
            tris = []
            # cells with corner v, and whether their lower and upper
            # triangles hold v
            for ci, cj, lower, upper in ((i - 1, j - 1, True, True), (i, j - 1, False, True),
                                         (i - 1, j, True, False), (i, j, True, True)):
                if 0 <= ci < nx and 0 <= cj < ny:
                    a = cj * nx1 + ci
                    t = 2 * (cj * nx + ci)
                    if lower:
                        tris.append((t, a, a + nx1 + 1, a + 1, True))
                    if upper:
                        tris.append((t + 1, a, a + nx1 + 1, a + nx1, False))
            pairs = tuple((j * nx + e, j * nx1 + e) for e in (i - 1, i) if 0 <= e < nx)
            table.append((tuple(tris), pairs))
    return tuple(table)


class _Descent:
    """The accepted map of the search, kept per triangle (penalty term
    |det - rho| * tri_area) and per marked pair (stretch ratio; the marked
    pairs are the horizontal edges of the vertex grid, in the list
    `ratiosl`), with `psum` and `rmax` the floats `pen.sum()` and
    `max(ratiosl)` returned.  Every triangle of the start, and so of every
    accepted map, keeps its orientation and the Lipschitz cap.

    A one-vertex move recomputes only the at most six triangles and two
    pairs that touch the vertex (`_vertex_table`), in float arithmetic
    with the IEEE operations of `plmap._jacobians`, and is rejected when a
    triangle fails the orientation or Lipschitz check.  The move is then
    screened, and rejected when

        lb = r + JAC_PENALTY * ((psum + d) - g * (psum + w)) >= obj,

    where d and w are the float sums of new - old and new + old over the
    changed penalty terms, g = gamma_{2n+16} for n triangles, and r is the
    largest of the changed pairs' math.hypot(...) * _HYPOT_LO / dx and,
    if no changed pair was at `rmax`, `rmax`.  r is at most the new ratio
    maximum.  The terms are >= 0, so `pen.sum()` over the n old or the n
    new terms, added in any order, is within gamma_{n-1} of their exact
    sum, relative (Higham, Accuracy and Stability of Numerical Algorithms,
    eq. 4.4).  To first order in u, relative to psum + w, the
    two full sums give 2(n - 1) u, the changed terms' six differences and
    five additions 6u, and the roundings of psum + d and of the final
    subtraction u each: 2n + 6 in all.  The roundings of w (gamma_6),
    psum + w and g * (psum + w) shrink the margin itself by at most a
    relative 8u, a second-order loss; the remaining 10 of the 2n + 16
    cover it and every other second-order term, far beyond the desk
    limit of n = 2048 triangles.  Rounding is monotone, so lb, evaluated
    with the objective's own operations, is at most the objective.  A move
    that passes the screen takes the exact path (`_exact`).  Every
    objective is therefore bitwise the one a full recomputation gives."""

    def __init__(self, m: PLMap, rho: np.ndarray, L: float):
        """m: the start; rho: the density at every triangle centroid; L:
        the Lipschitz cap.  A marked pair's ratio is its image length over
        the grid step dx.  A start that folds a triangle or exceeds the cap
        is a ValueError: no move can leave it."""
        dets, smax = _jacobians(m)
        if np.any(dets <= 0):
            raise ValueError("the start map folds a triangle (det <= 0)")
        lip = float(smax.max())
        if lip > L:
            raise ValueError(f"the start map's largest singular value {lip!r} "
                             f"exceeds the Lipschitz cap L={L!r}")
        self.rho, self.L = rho.tolist(), L
        self.dx = m.domain.width / m.nx
        self.dy = m.domain.height / m.ny
        self.tri_area = self.dx * self.dy / 2.0
        self.xs, self.ys = m.vertices[:, 0].tolist(), m.vertices[:, 1].tolist()
        self.table = _vertex_table(m.nx, m.ny)
        self.pen = np.abs(dets - rho) * self.tri_area
        self.penl = self.pen.tolist()   # Python floats mirroring pen, read by the screen
        V = m.vertices.reshape(m.ny + 1, m.nx + 1, 2)
        diffs = V[:, 1:] - V[:, :-1]
        self.ratiosl = (np.hypot(diffs[..., 0], diffs[..., 1]) / self.dx).ravel().tolist()
        self.psum, self.rmax = float(self.pen.sum()), max(self.ratiosl)
        self.margin = _gamma(2 * len(self.pen) + 16)
        self.obj = self.rmax + JAC_PENALTY * self.psum

    def vertices(self) -> np.ndarray:
        return np.column_stack([self.xs, self.ys])

    def move(self, v: int, px: float, py: float) -> bool:
        """Move vertex v to (px, py) if that strictly lowers the objective."""
        xs, ys, dx, dy, L = self.xs, self.ys, self.dx, self.dy, self.L
        rho, penl, ta = self.rho, self.penl, self.tri_area
        tris, pairs = self.table[v]
        old = xs[v], ys[v]
        xs[v], ys[v] = px, py
        new = []     # (triangle, penalty term)
        d = w = 0.0  # float sums of new - old and new + old penalty terms
        for t, a, b, c, lower in tris:
            x00, y00 = xs[a], ys[a]
            e2x, e2y = xs[b] - x00, ys[b] - y00
            ex, ey = xs[c] - x00, ys[c] - y00
            if lower:   # (ex, ey) = q10 - q00
                d00, d01, d10, d11 = ex / dx, (e2x - ex) / dy, ey / dx, (e2y - ey) / dy
            else:       # (ex, ey) = q01 - q00
                d00, d01, d10, d11 = (e2x - ex) / dx, ex / dy, (e2y - ey) / dx, ey / dy
            det = d00 * d11 - d01 * d10
            frob2 = d00 * d00 + d01 * d01 + d10 * d10 + d11 * d11
            disc = frob2 * frob2 - 4.0 * (det * det)
            s = sqrt((frob2 + sqrt(0.0 if disc < 0.0 else disc)) / 2.0)
            # every other triangle keeps its det > 0 and smax <= L from
            # the accepted state
            if det <= 0 or s > L:
                xs[v], ys[v] = old
                return False
            p = abs(det - rho[t]) * ta
            o = penl[t]
            d += p - o
            w += p + o
            new.append((t, p))
        rmax, ratiosl, obj = self.rmax, self.ratiosl, self.obj
        held = 0     # changed pairs at rmax
        r = 0.0
        for e, a in pairs:
            if ratiosl[e] == rmax:
                held += 1
            h = hypot(xs[a + 1] - xs[a], ys[a + 1] - ys[a]) * _HYPOT_LO / dx
            if h > r:
                r = h
        if not held and rmax > r:
            r = rmax
        psum = self.psum
        if r + JAC_PENALTY * ((psum + d) - self.margin * (psum + w)) < obj \
                and self._exact(new, pairs, held):
            return True
        xs[v], ys[v] = old
        return False

    def _exact(self, new, pairs, held) -> bool:
        """The full objective after the move already written into xs, ys
        (`new` its triangles, `held` the changed pairs that were at rmax):
        writes the new terms and ratios (np.hypot) into `pen` and
        `ratiosl` in place, takes `pen.sum()` and, unless no changed pair
        was at rmax, `max(ratiosl)`, keeps the move if the objective
        strictly decreases and restores both otherwise."""
        xs, ys, dx = self.xs, self.ys, self.dx
        pen, penl, ratiosl = self.pen, self.penl, self.ratiosl
        for t, p in new:
            pen[t] = p
        olds = [ratiosl[e] for e, _ in pairs]
        rs = []
        for e, a in pairs:
            ratiosl[e] = float(np.hypot(xs[a + 1] - xs[a], ys[a + 1] - ys[a])) / dx
            rs.append(ratiosl[e])
        # when no changed pair was at rmax, a kept pair still is
        rmax = max(ratiosl) if held else max(self.rmax, *rs)
        psum = float(pen.sum())
        obj = rmax + JAC_PENALTY * psum
        if not obj < self.obj:
            for t, _ in new:
                pen[t] = penl[t]
            for (e, _), r in zip(pairs, olds):
                ratiosl[e] = r
            return False
        for t, p in new:
            penl[t] = p
        self.psum, self.rmax, self.obj = psum, rmax, obj
        return True


def search_min_stretch(field: DensityField, consts: CertificateConstants,
                       budget: int, seed: int) -> SearchResult:
    """Deterministic coordinate descent from the identity on the marked grid.

    The map lives on the (N*M) x M vertex grid of the field's domain, which
    must be the thin rectangle [0,1] x [0,1/N], and starts with each vertex
    at its marked point, so marked points coincide with grid vertices.
    Each step perturbs one random vertex; moves are accepted only when the
    objective strictly decreases, so the trace is non-increasing.  A start
    whose computed largest singular value exceeds consts.L is a ValueError.

    The random numbers are drawn from np.random.default_rng(seed) in blocks
    of _BLOCK steps, whatever the budget: per block, the vertices
    rng.integers(nvert, size=_BLOCK), the directions
    rng.standard_normal((_BLOCK, 2)) and the step lengths rng.random(_BLOCK),
    in this order.  So with one seed, the trace of a smaller budget is a
    prefix of the trace of a larger one.  A budget that is not an int >= 0,
    or a seed that is not an int >= 0, is a ValueError (bools are refused).
    """
    if type(budget) is not int or budget < 0:
        raise ValueError(f"budget must be an int >= 0, not {budget!r}")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be an int >= 0, not {seed!r}")
    N, M = consts.N, consts.M
    if N > 16 or M > 8:
        raise ValueError("harness is desk-scale only (N <= 16, M <= 8)")
    if field.domain != Rect(0.0, 0.0, 1.0, 1.0 / N):
        raise ValueError(f"the field's domain {field.domain} is not [0,1] x [0,1/N] for N={N}")
    nx, ny = N * M, M
    m0 = PLMap(field.domain, nx, ny, np.array(marked_grid(N, M).points))
    gap = field.domain.width / nx

    state = _Descent(m0, _centroid_densities(field, nx, ny), consts.L)
    trace = [state.obj]
    rng = np.random.default_rng(seed)
    nvert = len(m0.vertices)
    base_step = 0.5 * gap
    move, xs, ys = state.move, state.xs, state.ys
    for start in range(0, budget, _BLOCK):
        # one block of draws, in this order: vertex, direction, step length
        vs = rng.integers(nvert, size=_BLOCK).tolist()
        dirs = rng.standard_normal((_BLOCK, 2)).tolist()
        us = rng.random(_BLOCK).tolist()
        for it, v, (ux, uy), u in zip(range(start, budget), vs, dirs, us):
            scale = base_step * u * 0.97 ** (it / 50.0)
            if move(v, xs[v] + scale * ux, ys[v] + scale * uy):
                trace.append(state.obj)

    final = PLMap(field.domain, nx, ny, state.vertices())
    metrics = pl_metrics(final, field)
    stretch = evaluate_stretch(final, marked_grid(N, M), consts)
    return SearchResult(
        plmap=final,
        stretch=stretch,
        trace=tuple(trace),
        objective=state.obj,
        lip=metrics.lip,
        mismatch_area=metrics.mismatch_area,
    )
