"""Stretch-minimization experiment harness.

Coordinate descent over the vertex images of a piecewise-affine map on
the thin checkerboard rectangle, minimizing the maximum marked-pair
stretch ratio plus a Jacobian penalty, subject to a global Lipschitz cap.
Probes, at desk scale, whether maps whose Jacobian tracks the
checkerboard must stretch some marked pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import CertificateConstants, StretchReport, evaluate_stretch, marked_grid
from .density import DensityField
from .geometry import Rect
from .plmap import PLMap, _cell_rows, _centroid_densities, _det_smax, _jacobians, pl_metrics

JAC_PENALTY = 1.0e3


@dataclass(frozen=True)
class SearchResult:
    plmap: PLMap
    stretch: StretchReport
    trace: tuple[float, ...]     # objective after each accepted move
    objective: float
    lip: float
    mismatch_area: float


class _Descent:
    """The accepted map of the search, kept per triangle (det, largest
    singular value, penalty term |det - rho| * tri_area) and per marked
    pair (stretch ratio; the marked pairs are the horizontal edges of the
    vertex grid).  A one-vertex move recomputes only the at most six
    triangles and two ratios that touch the vertex, in float arithmetic
    with the same IEEE operations as `_jacobians`; the max and the sum
    still run over the full arrays, so every objective is bitwise the one
    a full recomputation gives."""

    def __init__(self, m: PLMap, rho: np.ndarray, L: float):
        """m: the start; rho: the density at every triangle centroid; L:
        the Lipschitz cap.  A marked pair's ratio is its image length over
        the grid step dx."""
        self.nx, self.ny, self.rho, self.L = m.nx, m.ny, rho.tolist(), L
        self.dx = m.domain.width / m.nx
        self.dy = m.domain.height / m.ny
        self.tri_area = self.dx * self.dy / 2.0
        self.xs, self.ys = m.vertices[:, 0].tolist(), m.vertices[:, 1].tolist()
        self.dets, self.smax = _jacobians(m)
        self.pen = np.abs(self.dets - rho) * self.tri_area
        V = m.vertices.reshape(m.ny + 1, m.nx + 1, 2)
        diffs = V[:, 1:] - V[:, :-1]
        self.ratios = (np.hypot(diffs[..., 0], diffs[..., 1]) / self.dx).ravel()
        # +inf when the Lipschitz cap or orientation is violated
        if np.any(self.dets <= 0) or self.smax.max() > L:
            self.obj = np.inf
        else:
            self.obj = float(self.ratios.max()) + JAC_PENALTY * float(self.pen.sum())

    def vertices(self) -> np.ndarray:
        return np.column_stack([self.xs, self.ys])

    def move(self, v: int, px: float, py: float) -> bool:
        """Move vertex v to (px, py) if that strictly lowers the objective."""
        xs, ys = self.xs, self.ys
        old = xs[v], ys[v]
        xs[v], ys[v] = px, py
        if self._lowers_objective(v):
            return True
        xs[v], ys[v] = old
        return False

    def _lowers_objective(self, v: int) -> bool:
        """Keep the (already written) position of vertex v if the objective
        strictly decreases."""
        nx, ny, nx1 = self.nx, self.ny, self.nx + 1
        j, i = divmod(v, nx1)
        xs, ys, dx, dy = self.xs, self.ys, self.dx, self.dy
        # cells with corner v, and which of their triangles hold v
        # (bit 1: lower (q00, q10, q11), bit 2: upper (q00, q11, q01))
        new = []   # (triangle, det, smax)
        for ci, cj, tris in ((i - 1, j - 1, 3), (i, j - 1, 2), (i - 1, j, 1), (i, j, 3)):
            if 0 <= ci < nx and 0 <= cj < ny:
                a = cj * nx1 + ci
                b = a + nx1
                x = _cell_rows(xs[a], xs[a + 1], xs[b], xs[b + 1], dx, dy)
                y = _cell_rows(ys[a], ys[a + 1], ys[b], ys[b + 1], dx, dy)
                t = 2 * (cj * nx + ci)
                if tris & 1:
                    new.append((t, *_det_smax(x[0], x[1], y[0], y[1], math.sqrt, max)))
                if tris & 2:
                    new.append((t + 1, *_det_smax(x[2], x[3], y[2], y[3], math.sqrt, max)))
        # every other triangle keeps its det > 0 from the accepted state,
        # and its smax <= L unless the objective is +inf (a start above
        # the cap)
        if any(det <= 0 or s > self.L for _, det, s in new):
            return False
        if self.obj == np.inf:
            smax = self.smax.copy()
            for t, _, s in new:
                smax[t] = s
            if smax.max() > self.L:
                return False
        pen = self.pen.copy()
        for t, det, _ in new:
            pen[t] = abs(det - self.rho[t]) * self.tri_area
        ratios = self.ratios.copy()
        for e in (i - 1, i):
            if 0 <= e < nx:
                a = j * nx1 + e
                ratios[j * nx + e] = np.hypot(xs[a + 1] - xs[a], ys[a + 1] - ys[a]) / dx
        obj = float(ratios.max()) + JAC_PENALTY * float(pen.sum())
        if not obj < self.obj:
            return False
        for t, det, s in new:
            self.dets[t], self.smax[t] = det, s
        self.pen, self.ratios, self.obj = pen, ratios, obj
        return True


def search_min_stretch(field: DensityField, consts: CertificateConstants,
                       budget: int, seed: int) -> SearchResult:
    """Deterministic coordinate descent from the identity on the marked grid.

    The map lives on the (N*M) x M vertex grid of the field's domain, which
    must be the thin rectangle [0,1] x [0,1/N], and starts with each vertex
    at its marked point, so marked points coincide with grid vertices.
    Each step perturbs one random vertex; moves are accepted only when the
    objective strictly decreases, so the trace is non-increasing.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
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
    for it in range(budget):
        v = int(rng.integers(nvert))
        ux, uy = rng.standard_normal(2).tolist()
        scale = base_step * float(rng.random()) * 0.97 ** (it / 50.0)
        if state.move(v, state.xs[v] + scale * ux, state.ys[v] + scale * uy):
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
