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

from .geometry import Rect, Similarity, UNIT_SQUARE, first_overlap


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
        for n, (r, v) in enumerate(self.cells):
            if not d.contains_rect(r):
                raise ValueError(f"cell {n}: {r} not contained in domain {d}")
            if not 0 < v < math.inf:
                raise ValueError(f"cell {n}: density value {v!r} must be finite and positive")
        pair = first_overlap([r for r, _ in self.cells])
        if pair is not None:
            raise ValueError("cells {} and {} overlap".format(*pair))

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

    def replace_region(self, regions: list[Rect],
                       new_cells: list[tuple[Rect, float]]) -> "DensityField":
        """Return a field equal to self outside the pairwise
        interior-disjoint `regions` and to the given cells inside them.  The
        new cells must lie inside the regions; anything of a region they do
        not cover falls back to the field default."""
        kept: list[tuple[Rect, float]] = []
        for cell, v in self.cells:
            pieces = [cell]
            for region in regions:
                pieces = [p for piece in pieces for p in piece.subtract(region)]
            kept.extend((piece, v) for piece in pieces)
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


def _rect_from_json(rect: dict) -> Rect:
    return Rect(float(rect["x0"]), float(rect["y0"]), float(rect["x1"]), float(rect["y1"]))


def field_to_json(field: DensityField) -> str:
    doc = {
        "domain": _rect_to_json(field.domain),
        "default": _num(field.default),
        "cells": [{"rect": _rect_to_json(r), "value": _num(v)} for r, v in field.cells],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def field_from_json(text: str) -> DensityField:
    doc = json.loads(text)
    cells = tuple((_rect_from_json(c["rect"]), float(c["value"])) for c in doc["cells"])
    return DensityField(_rect_from_json(doc["domain"]), float(doc["default"]), cells)


def constant_field(value: float = 1.0, domain: Rect = UNIT_SQUARE) -> DensityField:
    return DensityField(domain, value)
