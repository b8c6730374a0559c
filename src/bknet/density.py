"""Piecewise-constant density fields on rectangles.

A field is a default value on its domain plus a finite list of
interior-disjoint rectangular cells with their own values.  Evaluation
uses the half-open convention [left, right) x [bottom, top) so every
point of the domain gets exactly one value; integration is exact because
all pieces are constants on rectangles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .geometry import Rect, Similarity, UNIT_SQUARE


class DomainError(ValueError):
    """Query outside the field's domain."""


@dataclass(frozen=True)
class DensityField:
    domain: Rect
    default: float
    cells: tuple[tuple[Rect, float], ...] = ()

    def __post_init__(self):
        for r, _ in self.cells:
            if not self.domain.contains_rect(r):
                raise ValueError(f"cell {r} not contained in domain {self.domain}")

    def value_at(self, x: float, y: float) -> float:
        if not self.domain.contains_point(x, y):
            raise DomainError(f"point ({x}, {y}) outside domain {self.domain}")
        for r, v in self.cells:
            if r.contains_point_half_open(x, y):
                return v
        return self.default

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
        total = 0.0
        covered = 0.0
        for cell, v in self.cells:
            part = cell.intersect(r)
            if part is not None:
                total += v * part.area
                covered += part.area
        total += self.default * (r.area - covered)
        return total

    def replace_region(self, region: Rect,
                       new_cells: list[tuple[Rect, float]]) -> "DensityField":
        """Return a field equal to self outside `region` and to the given
        cells inside it.  The new cells must tile or lie inside `region`;
        anything of `region` they do not cover falls back to the field
        default."""
        kept: list[tuple[Rect, float]] = []
        for cell, v in self.cells:
            for piece in cell.subtract(region):
                kept.append((piece, v))
        kept.extend(new_cells)
        return DensityField(self.domain, self.default, tuple(kept))


def make_checkerboard(N: int, c: float) -> DensityField:
    """Alternating density on [0,1] x [0,1/N]: value 1 where floor(N*x)
    is even, 1+c where it is odd.  All N vertical strips are listed as
    explicit cells."""
    if not (isinstance(N, int) and N >= 1):
        raise ValueError("N must be a positive integer")
    if not c > 0:
        raise ValueError("c must be positive")
    domain = Rect(0.0, 0.0, 1.0, 1.0 / N)
    cells = []
    for j in range(N):
        r = Rect(j / N, 0.0, (j + 1) / N, 1.0 / N)
        cells.append((r, 1.0 if j % 2 == 0 else 1.0 + c))
    return DensityField(domain, 1.0, tuple(cells))


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
# serialization: coordinates as decimal strings so dyadics round-trip exactly

def _num(x: float) -> str:
    return format(x, ".17g")


def _rect_to_json(r: Rect) -> dict:
    return {"x0": _num(r.x0), "y0": _num(r.y0), "x1": _num(r.x1), "y1": _num(r.y1)}


def _piece_from_json(rect: dict, value, where: str) -> tuple[Rect, float]:
    """One (rect, value) entry.  Non-finite coordinates and non-finite or
    non-positive values are rejected, naming the entry."""
    x0, y0, x1, y1 = float(rect["x0"]), float(rect["y0"]), float(rect["x1"]), float(rect["y1"])
    v = float(value)
    if not all(map(math.isfinite, (x0, y0, x1, y1))):
        raise ValueError(f"{where}: non-finite coordinate in {rect}")
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{where}: density value {value!r} must be finite and positive")
    return Rect(x0, y0, x1, y1), v


def field_to_json(field: DensityField) -> str:
    doc = {
        "domain": _rect_to_json(field.domain),
        "default": _num(field.default),
        "cells": [{"rect": _rect_to_json(r), "value": _num(v)} for r, v in field.cells],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def field_from_json(text: str) -> DensityField:
    doc = json.loads(text)
    domain, default = _piece_from_json(doc["domain"], doc["default"], "domain")
    cells = tuple(_piece_from_json(c["rect"], c["value"], f"cell {n}")
                  for n, c in enumerate(doc["cells"]))
    return DensityField(domain, default, cells)


def constant_field(value: float = 1.0, domain: Rect = UNIT_SQUARE) -> DensityField:
    return DensityField(domain, value)
