"""Oracles that only the tests use, kept out of the library: half-open
cell membership for a Rect, each cell's image area from the shoelace
formula, which shares no code with the determinant route of pl_metrics,
a density lookup that scans every cell, the net CSV writer that formats
every row's values, PLMap evaluation by the 2-vector numpy formula, the
Rect as a plain frozen dataclass, the field JSON writer that formats every
number, and region replacement that subtracts each region from every
piece of a cell."""

from dataclasses import dataclass

import numpy as np

from bknet.density import _CELL_JSON, _FIELD_JSON


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


def plmap_call_2vector(m, p) -> np.ndarray:
    """PLMap.__call__ as it was before it evaluated on Python floats: the
    cell from np.floor, the four corners as rows of m.vertices, and the
    interpolation as 2-vector numpy arithmetic."""
    x, y = float(p[0]), float(p[1])
    if not m.domain.contains_point(x, y):
        raise ValueError(f"point ({x}, {y}) outside map domain")
    u = (x - m.domain.x0) / m.domain.width * m.nx
    v = (y - m.domain.y0) / m.domain.height * m.ny
    i = min(int(np.floor(u)), m.nx - 1)
    j = min(int(np.floor(v)), m.ny - 1)
    s, t = u - i, v - j
    q00 = m.vertices[m.vidx(i, j)]
    q10 = m.vertices[m.vidx(i + 1, j)]
    q01 = m.vertices[m.vidx(i, j + 1)]
    q11 = m.vertices[m.vidx(i + 1, j + 1)]
    if t <= s:   # lower triangle (v00, v10, v11)
        return q00 + s * (q10 - q00) + t * (q11 - q10)
    return q00 + s * (q11 - q01) + t * (q01 - q00)


def scan_values_at(field, xs, ys) -> np.ndarray:
    """DensityField.values_at by a scan over every cell, the formula the slab
    table replaced: the first cell whose half-open [x0, x1) x [y0, y1) holds a
    point gives its value, otherwise the default, so NaN, infinite and
    outside points get the default."""
    x = np.asarray(xs, dtype=float).reshape(-1, 1)
    y = np.asarray(ys, dtype=float).reshape(-1, 1)
    out = np.full(x.size, float(field.default))
    if field.cells:
        box = np.array([[r.x0, r.y0, r.x1, r.y1] for r, _ in field.cells])
        val = np.array([v for _, v in field.cells], dtype=float)
        hit = (box[:, 0] <= x) & (x < box[:, 2]) & (box[:, 1] <= y) & (y < box[:, 3])
        found = hit.any(axis=1)
        out[found] = val[hit[found].argmax(axis=1)]
    return out


def csv_by_format(points, tags) -> str:
    """net_to_csv as it was before it formatted each distinct value once:
    every row's x and y through repr and its tag (`background` for 0) in
    one format call."""
    pts, tags = np.asarray(points, dtype=float).reshape(-1, 2), np.asarray(tags)
    x, y = pts.T.tolist()
    tag = ["background" if t == 0 else int(t) for t in tags.tolist()]
    flat = [v for row in zip(x, y, tag) for v in row]
    return "x,y,tag\n" + ("{!r},{!r},{}\n" * len(x)).format(*flat)


@dataclass(frozen=True)
class Rect:
    """geometry.Rect as it was before it had slots and its own __init__: a
    frozen dataclass whose __post_init__ refuses a degenerate rectangle.
    Named Rect so that its repr and error messages read as the library's."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate rectangle: {self}")


def field_to_json_per_number(field) -> str:
    """density.field_to_json as it was before it formatted each distinct
    number once: every number of every cell through the ".17g" template in
    one format call."""
    template = _CELL_JSON.replace("{}", "{:.17g}")
    box, val = field._columns
    cells = ""
    if len(val):
        flat = np.column_stack([box[:, [0, 2, 1, 3]], val]).ravel().tolist()
        cells = "\n" + ",\n".join([template] * len(val)).format(*flat) + "\n  "
    d = field.domain
    return _FIELD_JSON.format(cells, field.default, d.x0, d.x1, d.y0, d.y1)


def replace_region_subtract_all(field, regions, new_cells):
    """DensityField.replace_region as it was before it skipped the pieces a
    region misses: each region that meets a cell, in the order given, is
    subtracted from every piece of that cell so far."""
    kept = []
    for cell, v in field.cells:
        pieces = [cell]
        for r in regions:
            if cell.intersect(r) is not None:
                pieces = [p for piece in pieces for p in piece.subtract(r)]
        kept.extend((piece, v) for piece in pieces)
    kept.extend(new_cells)
    return type(field)(field.domain, field.default, tuple(kept))
