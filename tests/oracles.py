"""Oracles that only the tests use, kept out of the library: half-open
cell membership for a Rect, and each cell's image area from the shoelace
formula, which shares no code with the determinant route of pl_metrics."""

import numpy as np


def contains_point_half_open(r, x: float, y: float) -> bool:
    """Whether (x, y) lies in [x0, x1) x [y0, y1) of the Rect r (cell
    membership)."""
    return r.x0 <= x < r.x1 and r.y0 <= y < r.y1


def cell_image_areas_shoelace(m) -> np.ndarray:
    """Signed image area of every cell of the PLMap m via the shoelace
    formula on the image quadrilateral; independent of the determinant
    route."""
    out = np.empty((m.ny, m.nx))
    for j in range(m.ny):
        for i in range(m.nx):
            quad = m.vertices[[m.vidx(i, j), m.vidx(i + 1, j),
                               m.vidx(i + 1, j + 1), m.vidx(i, j + 1)]]
            x = quad[:, 0]
            y = quad[:, 1]
            out[j, i] = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return out
