"""Stretch-minimization experiment harness.

Coordinate descent over the vertex images of a piecewise-affine map on
the thin checkerboard rectangle, minimizing the maximum marked-pair
stretch ratio plus a Jacobian penalty, subject to a global Lipschitz cap.
Probes, at desk scale, whether maps whose Jacobian tracks the
checkerboard must stretch some marked pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import CertificateConstants, StretchReport, evaluate_stretch, marked_grid
from .density import DensityField
from .plmap import PLMap, _centroid_densities, _jacobians, identity_map, pl_metrics

JAC_PENALTY = 1.0e3


@dataclass(frozen=True)
class SearchResult:
    plmap: PLMap
    stretch: StretchReport
    trace: tuple[float, ...]     # objective after each accepted move
    objective: float
    lip: float
    mismatch_area: float


def _objective(verts: np.ndarray, m: PLMap, gap: float, rho: np.ndarray,
               tri_area: float, L: float) -> tuple[float, float]:
    """(objective, lip); objective is +inf when the Lipschitz cap or
    orientation constraint is violated.  The marked pairs are the
    horizontal edges of the vertex grid."""
    dets, smax = _jacobians(PLMap(m.domain, m.nx, m.ny, verts))
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


def search_min_stretch(field: DensityField, consts: CertificateConstants,
                       budget: int, seed: int) -> SearchResult:
    """Deterministic coordinate descent from the identity map.

    The map lives on the (N*M) x M vertex grid of the field's domain so
    marked points coincide with grid vertices.  Each step perturbs one
    random vertex; moves are accepted only when the objective strictly
    decreases, so the trace is non-increasing.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    N, M = consts.N, consts.M
    if N > 16 or M > 8:
        raise ValueError("harness is desk-scale only (N <= 16, M <= 8)")
    nx, ny = N * M, M
    m0 = identity_map(field.domain, nx, ny)
    gap = field.domain.width / nx

    # density at triangle centroids, fixed over the search
    rho = _centroid_densities(field, nx, ny)
    tri_area = (field.domain.width / nx) * (field.domain.height / ny) / 2.0

    verts = m0.vertices.copy()
    obj, lip = _objective(verts, m0, gap, rho, tri_area, consts.L)
    trace = [obj]
    rng = np.random.default_rng(seed)
    nvert = len(verts)
    base_step = 0.5 * gap
    for it in range(budget):
        v = int(rng.integers(nvert))
        direction = rng.standard_normal(2)
        scale = base_step * float(rng.random()) * 0.97 ** (it / 50.0)
        cand = verts.copy()
        cand[v] += scale * direction
        cobj, clip = _objective(cand, m0, gap, rho, tri_area, consts.L)
        if cobj < obj:
            verts, obj, lip = cand, cobj, clip
            trace.append(obj)

    final = PLMap(field.domain, nx, ny, verts)
    metrics = pl_metrics(final, field)
    stretch = evaluate_stretch(final, marked_grid(N, M), consts)
    return SearchResult(
        plmap=final,
        stretch=stretch,
        trace=tuple(trace),
        objective=obj,
        lip=metrics.lip,
        mismatch_area=metrics.mismatch_area,
    )
