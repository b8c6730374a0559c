"""Piecewise-affine maps on a triangulated grid.

Every grid cell is split along its main diagonal (lower-left to
upper-right) into two triangles; vertex images define the map.  Jacobian
determinants, Lipschitz constants (largest singular values), and image
areas are exact per triangle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .density import DensityField, _rect_from_json
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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        want = (self.nx + 1) * (self.ny + 1)
        if self.vertices.shape != (want, 2):
            raise ValueError(f"expected {want} vertex images, got {self.vertices.shape}")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise ValueError(f"vertex image {bad[0]} has a non-finite coordinate")

    def vidx(self, i: int, j: int) -> int:
        return j * (self.nx + 1) + i

    def grid_x(self, i: int) -> float:
        return self.domain.x0 + self.domain.width * i / self.nx

    def grid_y(self, j: int) -> float:
        return self.domain.y0 + self.domain.height * j / self.ny

    def triangles(self) -> np.ndarray:
        """Vertex-index triples; two per cell, lower then upper."""
        w = self.nx + 1
        v00 = np.arange(self.ny)[:, None] * w + np.arange(self.nx)
        # lower (v00, v10, v11), upper (v00, v11, v01)
        offsets = np.array([[0, 1, w + 1], [0, w + 1, w]])
        return (v00.reshape(-1, 1, 1) + offsets).reshape(-1, 3)

    def __call__(self, p) -> np.ndarray:
        """Evaluate at a point of the domain (piecewise-affine interpolation)."""
        x, y = float(p[0]), float(p[1])
        if not self.domain.contains_point(x, y):
            raise ValueError(f"point ({x}, {y}) outside map domain")
        u = (x - self.domain.x0) / self.domain.width * self.nx
        v = (y - self.domain.y0) / self.domain.height * self.ny
        i = min(int(np.floor(u)), self.nx - 1)
        j = min(int(np.floor(v)), self.ny - 1)
        s, t = u - i, v - j
        q00 = self.vertices[self.vidx(i, j)]
        q10 = self.vertices[self.vidx(i + 1, j)]
        q01 = self.vertices[self.vidx(i, j + 1)]
        q11 = self.vertices[self.vidx(i + 1, j + 1)]
        if t <= s:   # lower triangle (v00, v10, v11)
            return q00 + s * (q10 - q00) + t * (q11 - q10)
        return q00 + s * (q11 - q01) + t * (q01 - q00)


def identity_map(domain: Rect, nx: int, ny: int) -> PLMap:
    xs = domain.x0 + domain.width * np.arange(nx + 1) / nx
    ys = domain.y0 + domain.height * np.arange(ny + 1) / ny
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


def _cell_rows(a00, a10, a01, a11, dx: float, dy: float):
    """One row of the affine differentials of a cell's two triangles, from
    one image coordinate at the cell's corners q00, q10, q01, q11:
    (lower d/dx, lower d/dy, upper d/dx, upper d/dy).  Elementwise, so it
    takes arrays (every cell at once) or floats (one cell)."""
    e1, e2, e3 = a10 - a00, a11 - a00, a01 - a00
    # lower (q00, q10, q11): ref edges (dx,0), (dx,dy)
    # upper (q00, q11, q01): ref edges (dx,dy), (0,dy)
    return e1 / dx, (e2 - e1) / dy, (e2 - e3) / dx, e3 / dy


def _det_smax(d00, d01, d10, d11, sqrt=np.sqrt, maximum=np.maximum):
    """Determinant and largest singular value of the differential
    [[d00, d01], [d10, d11]], in closed form.  Elementwise on arrays, or
    on floats with sqrt=math.sqrt and maximum=max."""
    det = d00 * d11 - d01 * d10
    frob2 = d00 * d00 + d01 * d01 + d10 * d10 + d11 * d11
    disc = sqrt(maximum(frob2 * frob2 - 4.0 * (det * det), 0.0))
    return det, sqrt((frob2 + disc) / 2.0)


def _jacobians(m: PLMap) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and largest singular value of every triangle's
    differential, in triangles() order."""
    V = m.vertices.reshape(m.ny + 1, m.nx + 1, 2)
    dx = m.domain.width / m.nx
    dy = m.domain.height / m.ny
    # (cell j, cell i, lower/upper, d/dx or d/dy, image coordinate); the
    # corner views carry both coordinates, so one _cell_rows call fills D
    D = np.empty((m.ny, m.nx, 2, 2, 2))
    D[:, :, 0, 0], D[:, :, 0, 1], D[:, :, 1, 0], D[:, :, 1, 1] = _cell_rows(
        V[:-1, :-1], V[:-1, 1:], V[1:, :-1], V[1:, 1:], dx, dy)
    dets, smax = _det_smax(D[..., 0, 0], D[..., 1, 0], D[..., 0, 1], D[..., 1, 1])
    return dets.ravel(), smax.ravel()


def _centroid_densities(field: DensityField, nx: int, ny: int) -> np.ndarray:
    """Density at every triangle centroid of the nx x ny grid on the
    field's domain, in triangles() order: the lower triangle of cell (i,j)
    has its centroid at (x_i + 2dx/3, y_j + dy/3), the upper at
    (x_i + dx/3, y_j + 2dy/3)."""
    dom = field.domain
    dx = dom.width / nx
    dy = dom.height / ny
    x0 = dom.x0 + dom.width * np.arange(nx) / nx
    y0 = dom.y0 + dom.height * np.arange(ny) / ny
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


def cell_image_areas_shoelace(m: PLMap) -> np.ndarray:
    """Signed image area of every cell via the shoelace formula on the
    image quadrilateral; independent of the determinant route."""
    out = np.empty((m.ny, m.nx))
    for j in range(m.ny):
        for i in range(m.nx):
            quad = m.vertices[[m.vidx(i, j), m.vidx(i + 1, j),
                               m.vidx(i + 1, j + 1), m.vidx(i, j + 1)]]
            x = quad[:, 0]
            y = quad[:, 1]
            out[j, i] = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return out


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
