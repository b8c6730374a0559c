"""Piecewise-constant density fields on rectangles.

A field is a default value on its domain plus a finite list of
interior-disjoint rectangular cells with their own values.  Evaluation
uses the half-open convention [left, right) x [bottom, top) so every
point of the domain gets exactly one value; integration is exact because
all pieces are constants on rectangles.  `cells` is the public tuple;
checks, reads and writes go through float columns built from it once, and
the point lookups through a slab table built from those on the first
lookup.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (Rect, Similarity, UNIT_SQUARE, _PAIR_CHUNK, _boxes, _meeting_pairs,
                       _runs, first_overlap)


class DomainError(ValueError):
    """Query outside the field's domain."""


@dataclass(frozen=True)
class DensityField:
    domain: Rect
    default: float
    cells: tuple[tuple[Rect, float], ...] = ()

    def __post_init__(self):
        """Every density rule: a finite domain, finite positive values, and
        interior-disjoint cells inside the domain.  Errors name the entry."""
        d = self.domain
        if not all(map(math.isfinite, (d.x0, d.y0, d.x1, d.y1))):
            raise ValueError(f"domain: non-finite coordinate in {d}")
        if not 0 < self.default < math.inf:
            raise ValueError(f"domain: default density {self.default!r} must be finite and positive")
        box, val = self._columns
        ok = ((d.x0 <= box[:, 0]) & (box[:, 2] <= d.x1) & (d.y0 <= box[:, 1])
              & (box[:, 3] <= d.y1) & (0 < val) & (val < math.inf))
        if not ok.all():
            n = int(ok.argmin())    # the first bad cell
            r, v = self.cells[n]
            if not d.contains_rect(r):
                raise ValueError(f"cell {n}: {r} not contained in domain {d}")
            raise ValueError(f"cell {n}: density value {v!r} must be finite and positive")
        pair = first_overlap(box)
        if pair is not None:
            raise ValueError("cells {} and {} overlap".format(*pair))

    @functools.cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, 4) cell boxes x0, y0, x1, y1 and (n,) cell values, in `cells`
        order, built once, by the constructor's checks."""
        return (_boxes(r for r, _ in self.cells),
                np.array([v for _, v in self.cells], dtype=float))

    @functools.cached_property
    def _slabs(self) -> "tuple[tuple, tuple] | None":
        """The table both lookups read, built on the first of them: (ys, xs,
        key, x1, val) as arrays, which values_at searches, and as lists,
        which value_at bisects; None where it would hold more than 4n + 1024
        entries for n cells, and the field then keeps the scan over every
        cell.  The distinct cell y edges `ys` cut the plane into slabs
        [ys[s], ys[s + 1]), and a cell has one entry in each slab its
        [y0, y1) covers, with its x1 and value, keyed slab * len(xs) + the
        rank of its x0 among the distinct cell x0s `xs`, in key order.  The
        cells of a slab span its full height and are interior-disjoint, so
        their [x0, x1) are disjoint: no two share an x0, so the keys are
        distinct, and a point of the slab lies in at most one entry, the one
        with the last key at or below the point's, when that key is in the
        point's slab and the point is left of its x1."""
        box, val = self._columns
        ys = _distinct(box[:, 1::2])
        lo = np.searchsorted(ys, box[:, 1])
        span = np.searchsorted(ys, box[:, 3]) - lo
        if int(span.sum()) > 4 * len(val) + 1024:
            return None
        cell, slab = _runs(lo, span)
        xs = _distinct(box[:, 0])
        key = slab * len(xs) + np.searchsorted(xs, box[cell, 0])
        order = np.argsort(key)
        cell = cell[order]
        table = (ys, xs, key[order], box[cell, 2], val[cell])
        return table, tuple(a.tolist() for a in table)

    def value_at(self, x: float, y: float) -> float:
        """The value at one point of the closed domain: the cell that holds
        it, half-open, else the default.  The cells are interior-disjoint,
        so at most one holds the point; three bisections in the slab table
        find it."""
        if not self.domain.contains_point(x, y):
            raise DomainError(f"point ({x}, {y}) outside domain {self.domain}")
        t = self._slabs
        if t is None:
            return _scan(*self._columns, self.default, x, y)
        ys, xs, key, x1, val = t[1]
        low = (bisect.bisect_right(ys, y) - 1) * len(xs)    # the point's slab's first key
        j = bisect.bisect_right(key, low + bisect.bisect_right(xs, x) - 1) - 1
        if j >= 0 and key[j] >= low and x < x1[j]:
            return val[j]
        return float(self.default)

    def values_at(self, xs, ys) -> np.ndarray:
        """Values at many points, half-open like value_at but without its
        domain check: the cell holding a point, otherwise the default, so
        NaN, infinite and outside points get the default.  value_at's
        decision, by searchsorted on the slab table.  The result has the
        shape of xs."""
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        if x.shape != y.shape:
            raise ValueError(f"xs and ys differ in shape: {x.shape} and {y.shape}")
        shape, x, y = x.shape, x.ravel(), y.ravel()
        out = np.full(x.size, float(self.default))
        t = self._slabs
        if t is None:
            for k, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
                out[k] = _scan(*self._columns, self.default, a, b)
        elif len(t[0][2]):
            y_edges, x0s, key, x1, val = t[0]
            low = (np.searchsorted(y_edges, y, side="right") - 1) * len(x0s)
            j = np.searchsorted(key, low + np.searchsorted(x0s, x, side="right") - 1,
                                side="right") - 1
            # j = -1 reads the last entry, which j >= 0 then rejects
            hit = (j >= 0) & (key[j] >= low) & (x < x1[j])
            out[hit] = val[j[hit]]
        return out.reshape(shape)

    def values(self) -> set[float]:
        return {self.default} | {v for _, v in self.cells}

    @property
    def amplitude(self) -> float:
        """max value - 1; the c of a field with values in [1, 1+c]."""
        return max(self.values()) - 1.0

    def integrate(self, r: Rect) -> float:
        """Exact integral over r (r must lie inside the domain)."""
        if not self.domain.contains_rect(r):
            raise DomainError(f"rectangle {r} not contained in domain {self.domain}")
        return float(_integrate(*self._columns, self.default,
                                np.array([[r.x0, r.y0, r.x1, r.y1]]))[0])

    def replace_region(self, regions: list[Rect],
                       new_cells: list[tuple[Rect, float]]) -> "DensityField":
        """Return a field equal to self outside the pairwise
        interior-disjoint `regions` and to the given cells inside them.  The
        new cells must lie inside the regions; anything of a region they do
        not cover falls back to the field default.  Each old cell loses the
        regions that meet it, in the order given; a region that misses a
        cell misses every piece of it, so the others are skipped, and one
        that meets the cell is subtracted only from the pieces it meets."""
        box = self._columns[0]
        n_cells = len(box)
        # chunks of candidate pairs stay under _PAIR_CHUNK, read through this
        # module's name so tests can patch it
        pairs = np.concatenate([np.empty((0, 2), dtype=np.intp)] + [
            np.sort(np.column_stack(ab), axis=1)
            for ab in _meeting_pairs(np.concatenate([box, _boxes(regions)]), _PAIR_CHUNK)])
        # (old cell, n_cells + region), by cell and then by region
        pairs = pairs[(pairs[:, 0] < n_cells) & (pairs[:, 1] >= n_cells)]
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        starts = np.searchsorted(pairs[:, 0], np.arange(n_cells + 1), side="left").tolist()
        hits = (pairs[:, 1] - n_cells).tolist()
        kept: list[tuple[Rect, float]] = []
        for n, (cell, v) in enumerate(self.cells):
            a, b = starts[n], starts[n + 1]
            if a == b:
                kept.append((cell, v))
                continue
            pieces = [cell]
            for k in hits[a:b]:
                r = regions[k]
                pieces = [p for piece in pieces for p in (
                    piece.subtract(r) if (piece.x0 < r.x1 and r.x0 < piece.x1
                                          and piece.y0 < r.y1 and r.y0 < piece.y1)
                    else (piece,))]
            kept.extend((piece, v) for piece in pieces)
        kept.extend(new_cells)
        return DensityField(self.domain, self.default, tuple(kept))


def _scan(box: np.ndarray, val: np.ndarray, default: float, x: float, y: float) -> float:
    """The value at (x, y) from a scan over every box (rows x0, y0, x1, y1)
    for one whose half-open [x0, x1) x [y0, y1) holds it: the lookups' path
    on a field whose slab table would be too large."""
    hit = (box[:, 0] <= x) & (x < box[:, 2]) & (box[:, 1] <= y) & (y < box[:, 3])
    n = hit.argmax()
    return float(val[n]) if hit[n] else float(default)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, sorted.  np.unique would do, but its first
    call in a process adds over a megabyte of resident memory."""
    a = np.sort(a, axis=None)
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


def _integrate(box: np.ndarray, val: np.ndarray, default: float,
               rects: np.ndarray) -> np.ndarray:
    """Exact integrals over the rectangles `rects` (rows x0, y0, x1, y1) of
    the field with cell boxes `box` (rows likewise), cell values `val` and
    value `default` elsewhere.  Each rectangle's cell terms are added in row
    order, as a loop over the cells would."""
    w = np.minimum(box[:, 2:3], rects[:, 2]) - np.maximum(box[:, 0:1], rects[:, 0])
    h = np.minimum(box[:, 3:4], rects[:, 3]) - np.maximum(box[:, 1:2], rects[:, 1])
    # interiors meet where both are positive, as Rect.intersect decides; the
    # other terms are zeros, which change no partial sum
    area = np.maximum(w, 0.0) * np.maximum(h, 0.0)
    total = covered = np.zeros(len(rects))
    if len(box):
        # cumsum adds the cells in order; np.sum's pairwise order would not
        total = np.cumsum(val[:, None] * area, axis=0)[-1]
        covered = np.cumsum(area, axis=0)[-1]
    r_area = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])
    return total + default * (r_area - covered)


def make_checkerboard(N: int, c: float) -> DensityField:
    """Alternating density on [0,1] x [0,1/N]: value 1 where floor(N*x)
    is even, 1+c where it is odd.  All N vertical strips are listed as
    explicit cells."""
    if not (isinstance(N, int) and N >= 1):
        raise ValueError("N must be a positive integer")
    if not c > 0:
        raise ValueError("c must be positive")
    cells = _strips(_grid_columns(0.0, 1.0, N, 1), 0.0, 1.0 / N, 1, c)
    return DensityField(Rect(0.0, 0.0, 1.0, 1.0 / N), 1.0, tuple(cells))


# The grid of a checkerboard patch [ax, bx] x [y, top] with N strips of M x M
# marked squares, lam = bx - ax: columns ax + lam * a / NM, a = 0..NM, and
# marked rows y + lam * s / NM, s = 0..M, at or below top.  Its strip edges,
# marked edges and marked points all lie on these lines.  Both helpers take
# one patch as floats, or many as equal-length arrays.

def _grid_columns(ax, bx, N: int, M: int) -> np.ndarray:
    """The grid's columns, one row of NM + 1 per patch, the last exactly bx
    (ax + lam * NM / NM can round away from it)."""
    ax, bx = np.atleast_1d(ax, bx)
    xs = ax[:, None] + (bx - ax)[:, None] * np.arange(N * M + 1) / (N * M)
    xs[:, N * M] = bx
    return xs


def _grid_rows(ax, bx, y, top, N: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """(patch index, height) of each of the grid's marked rows, patch by
    patch."""
    ax, bx, y, top = np.atleast_1d(ax, bx, y, top)
    py = y[:, None] + (bx - ax)[:, None] * np.arange(M + 1) / (N * M)
    patch, s = np.nonzero(py <= top[:, None])
    return patch, py[patch, s]


def _strips(xs: np.ndarray, y, top, M: int, c: float) -> list[tuple[Rect, float]]:
    """The checkerboard strips of each patch over [y, top], patch by patch:
    strip j spans grid columns jM to (j + 1)M of xs and is valued 1 if j is
    even, else 1+c."""
    cols = xs[:, ::M].tolist()
    vals = [1.0 if j % 2 == 0 else 1.0 + c for j in range(len(cols[0]) - 1)]
    return [(Rect(x[j], y0, x[j + 1], y1), v)
            for x, y0, y1 in zip(cols, np.atleast_1d(y).tolist(), np.atleast_1d(top).tolist())
            for j, v in enumerate(vals)]


def _as_pairs(xs: np.ndarray, patch: np.ndarray, py: np.ndarray,
              step: int = 1) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """The marked edges ((x0, y), (x1, y)) of the grid, row by row: in each
    marked row, from column a to a + 1 of its patch's columns xs for every
    step-th a.  A row's edges share its height's float."""
    x0, x1 = xs[patch, :-1:step], xs[patch, 1::step]
    ys = [v for v in py.tolist() for _ in range(x0.shape[1])]
    return list(zip(zip(x0.ravel().tolist(), ys), zip(x1.ravel().tolist(), ys)))


def transplant(field: DensityField, s: Similarity) -> DensityField:
    """Push the field forward through the similarity: the result at s(p)
    equals the original at p."""
    return DensityField(
        s.apply_rect(field.domain),
        field.default,
        tuple((s.apply_rect(r), v) for r, v in field.cells),
    )


def reciprocal_transplant(field: DensityField, s: Similarity) -> DensityField:
    """Push forward and invert the values: (1/field) o s^{-1}."""
    return DensityField(
        s.apply_rect(field.domain),
        1.0 / field.default,
        tuple((s.apply_rect(r), 1.0 / v) for r, v in field.cells),
    )


# ---------------------------------------------------------------------------
# serialization: coordinates as decimal strings so dyadics round-trip exactly.
# The text is json.dumps(doc, indent=2, sort_keys=True) of
# {"cells": [{"rect": rect, "value": v}, ...], "default": v, "domain": rect},
# a rect being {"x0": ..., "x1": ..., "y0": ..., "y1": ...} and every number a
# ".17g" string, written through these templates in one format call; the
# cells' numbers are formatted before it.

_CELL_JSON = """    {{
      "rect": {{
        "x0": "{}",
        "x1": "{}",
        "y0": "{}",
        "y1": "{}"
      }},
      "value": "{}"
    }}"""

_FIELD_JSON = """{{
  "cells": [{}],
  "default": "{:.17g}",
  "domain": {{
    "x0": "{:.17g}",
    "x1": "{:.17g}",
    "y0": "{:.17g}",
    "y1": "{:.17g}"
  }}
}}"""


def _rect_from_json(rect: dict) -> Rect:
    return Rect(float(rect["x0"]), float(rect["y0"]), float(rect["x1"]), float(rect["y1"]))


def field_to_json(field: DensityField) -> str:
    """The field as JSON text.  Each distinct number of the cells (by its
    bit pattern, so -0.0 stays apart from 0.0) is formatted once."""
    box, val = field._columns
    cells = ""
    if len(val):
        # per cell x0, x1, y0, y1, value: the sorted keys' order
        bits = np.column_stack([box[:, [0, 2, 1, 3]], val]).ravel().view(np.int64)
        u = _distinct(bits)
        text = np.array([format(v, ".17g") for v in u.view(float).tolist()], dtype=object)
        flat = text[np.searchsorted(u, bits)].tolist()
        cells = "\n" + ",\n".join([_CELL_JSON] * len(val)).format(*flat) + "\n  "
    d = field.domain
    return _FIELD_JSON.format(cells, field.default, d.x0, d.x1, d.y0, d.y1)


def field_from_json(text: str) -> DensityField:
    doc = json.loads(text)
    cells = tuple((_rect_from_json(c["rect"]), float(c["value"])) for c in doc["cells"])
    return DensityField(_rect_from_json(doc["domain"]), float(doc["default"]), cells)


def constant_field(value: float = 1.0, domain: Rect = UNIT_SQUARE) -> DensityField:
    return DensityField(domain, value)
