"""Piecewise-affine maps on a triangulated grid.

Every grid cell is split along its main diagonal (lower-left to
upper-right) into two triangles; vertex images define the map.  Jacobian
determinants, Lipschitz constants (largest singular values), and image
areas are exact per triangle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .density import DensityField, _grid_columns, _rect_from_json
from .geometry import Rect

JAC_MATCH_TOL = 1e-9


class DegenerateTriangleError(ValueError):
    pass


@dataclass(frozen=True)
class PLMap:
    domain: Rect
    nx: int
    ny: int
    vertices: np.ndarray   # ((nx+1)*(ny+1), 2); vertex (i, j) is reshape(ny+1, nx+1, 2)[j, i]

    def __post_init__(self):
        for name in ("nx", "ny"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"{name} must be an int, got {n!r}")
            if n < 1:
                raise ValueError(f"{name} must be at least 1, got {n}")
        want = (self.nx + 1) * (self.ny + 1)
        if self.vertices.shape != (want, 2):
            raise ValueError(f"expected {want} vertex images, got {self.vertices.shape}")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise ValueError(f"vertex image {bad[0]} has a non-finite coordinate")
        # a read-only float64 copy, and its coordinates as one flat list of
        # Python floats (x, y of vertex k at 2k, 2k + 1) for __call__
        verts = np.array(self.vertices, dtype=np.float64)
        verts.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_flat", verts.ravel().tolist())

    def __reduce__(self):
        # a pickled or deep-copied map is built anew, so its vertices are
        # read-only and agree with _flat
        return type(self), (self.domain, self.nx, self.ny, self.vertices)

    def vidx(self, i: int, j: int) -> int:
        return j * (self.nx + 1) + i

    def triangles(self) -> np.ndarray:
        """Vertex-index triples; two per cell, lower then upper."""
        w = self.nx + 1
        v00 = np.arange(self.ny)[:, None] * w + np.arange(self.nx)
        # lower (v00, v10, v11), upper (v00, v11, v01)
        offsets = np.array([[0, 1, w + 1], [0, w + 1, w]])
        return (v00.reshape(-1, 1, 1) + offsets).reshape(-1, 3)

    def __call__(self, p) -> np.ndarray:
        """Evaluate at a point of the domain (piecewise-affine interpolation).
        The float operations, on Python floats, are those of the 2-vector
        formula q00 + s (q10 - q00) + t (q11 - q10) (lower triangle) or
        q00 + s (q11 - q01) + t (q01 - q00) (upper), one coordinate at a
        time, so the result is bitwise that formula's on float64 vertices."""
        x, y = float(p[0]), float(p[1])
        if not self.domain.contains_point(x, y):
            raise ValueError(f"point ({x}, {y}) outside map domain")
        nx = self.nx
        u = (x - self.domain.x0) / self.domain.width * nx
        v = (y - self.domain.y0) / self.domain.height * self.ny
        i = min(math.floor(u), nx - 1)
        j = min(math.floor(v), self.ny - 1)
        s, t = u - i, v - j
        a = 2 * (j * (nx + 1) + i)   # vertex (i, j) in _flat; row j + 1 is nx + 1 vertices on
        b = a + 2 * (nx + 1)
        x00, y00, x10, y10 = self._flat[a:a + 4]
        x01, y01, x11, y11 = self._flat[b:b + 4]
        if t <= s:   # lower triangle (v00, v10, v11)
            return np.array([x00 + s * (x10 - x00) + t * (x11 - x10),
                             y00 + s * (y10 - y00) + t * (y11 - y10)])
        return np.array([x00 + s * (x11 - x01) + t * (x01 - x00),
                         y00 + s * (y11 - y01) + t * (y01 - y00)])


def identity_map(domain: Rect, nx: int, ny: int) -> PLMap:
    xs = _grid_columns(domain.x0, domain.x1, nx, 1)[0]
    ys = _grid_columns(domain.y0, domain.y1, ny, 1)[0]
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([gx.ravel(), gy.ravel()])
    return PLMap(domain, nx, ny, verts)


@dataclass(frozen=True)
class PLMetrics:
    dets: np.ndarray            # per triangle
    lip: float
    lip_inv: float
    mismatch_area: float        # area where |det - density| > tolerance
    cell_image_areas: np.ndarray  # (ny, nx) signed image areas


def _jacobians(m: PLMap) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and largest singular value (closed form) of every
    triangle's differential, in triangles() order.  `search._Descent`
    repeats these float operations, in this order, for one vertex's
    triangles."""
    V = m.vertices.reshape(m.ny + 1, m.nx + 1, 2)
    dx = m.domain.width / m.nx
    dy = m.domain.height / m.ny
    q00, q10, q01, q11 = V[:-1, :-1], V[:-1, 1:], V[1:, :-1], V[1:, 1:]
    e1, e2, e3 = q10 - q00, q11 - q00, q01 - q00
    # (cell j, cell i, lower/upper, d/dx or d/dy, image coordinate)
    D = np.empty((m.ny, m.nx, 2, 2, 2))
    # lower (q00, q10, q11): ref edges (dx,0), (dx,dy)
    # upper (q00, q11, q01): ref edges (dx,dy), (0,dy)
    D[:, :, 0, 0], D[:, :, 0, 1] = e1 / dx, (e2 - e1) / dy
    D[:, :, 1, 0], D[:, :, 1, 1] = (e2 - e3) / dx, e3 / dy
    # the differential [[d00, d01], [d10, d11]]
    d00, d01, d10, d11 = D[..., 0, 0], D[..., 1, 0], D[..., 0, 1], D[..., 1, 1]
    det = d00 * d11 - d01 * d10
    frob2 = d00 * d00 + d01 * d01 + d10 * d10 + d11 * d11
    disc = np.sqrt(np.maximum(frob2 * frob2 - 4.0 * (det * det), 0.0))
    return det.ravel(), np.sqrt((frob2 + disc) / 2.0).ravel()


def _centroid_densities(field: DensityField, nx: int, ny: int) -> np.ndarray:
    """Density at every triangle centroid of the nx x ny grid on the
    field's domain, in triangles() order: the lower triangle of cell (i,j)
    has its centroid at (x_i + 2dx/3, y_j + dy/3), the upper at
    (x_i + dx/3, y_j + 2dy/3)."""
    dom = field.domain
    dx = dom.width / nx
    dy = dom.height / ny
    x0 = _grid_columns(dom.x0, dom.x1, nx, 1)[0, :-1]
    y0 = _grid_columns(dom.y0, dom.y1, ny, 1)[0, :-1]
    cx = np.empty((ny, nx, 2))
    cy = np.empty((ny, nx, 2))
    cx[:, :, 0], cy[:, :, 0] = x0 + 2 * dx / 3, (y0 + dy / 3)[:, None]
    cx[:, :, 1], cy[:, :, 1] = x0 + dx / 3, (y0 + 2 * dy / 3)[:, None]
    return field.values_at(np.minimum(cx, dom.x1).ravel(), np.minimum(cy, dom.y1).ravel())


def pl_metrics(m: PLMap, field: DensityField) -> PLMetrics:
    """Per-triangle Jacobians, global Lipschitz constants, mismatch area
    against the density, and per-cell image areas."""
    if field.domain != m.domain:
        raise ValueError("density domain must equal map domain")
    dets, smax = _jacobians(m)
    if np.any(np.abs(dets) < 1e-300):
        raise DegenerateTriangleError("degenerate triangle in map")
    smin = np.abs(dets) / smax

    dx = m.domain.width / m.nx
    dy = m.domain.height / m.ny
    tri_area = dx * dy / 2.0
    rho = _centroid_densities(field, m.nx, m.ny)
    mismatched = int(np.count_nonzero(np.abs(dets - rho) > JAC_MATCH_TOL))
    return PLMetrics(
        dets=dets,
        lip=float(smax.max()),
        lip_inv=float((1.0 / smin).max()),
        mismatch_area=mismatched * tri_area,
        cell_image_areas=(dets[0::2] + dets[1::2]).reshape(m.ny, m.nx) * tri_area,
    )


def plmap_to_json(m: PLMap) -> str:
    doc = {
        "nx": m.nx,
        "ny": m.ny,
        "domain": {"x0": repr(m.domain.x0), "y0": repr(m.domain.y0),
                   "x1": repr(m.domain.x1), "y1": repr(m.domain.y1)},
        "vertices": [[repr(float(x)), repr(float(y))] for x, y in m.vertices],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def plmap_from_json(text: str) -> PLMap:
    doc = json.loads(text)
    verts = np.array([[float(x), float(y)] for x, y in doc["vertices"]])
    return PLMap(_rect_from_json(doc["domain"]), int(doc["nx"]), int(doc["ny"]), verts)
