"""Axis-aligned rectangles and axis-aligned similarities.

All constructions in this package live on axis-aligned rectangles whose
corners are dyadic rationals whenever we control them, so intersection
and area arithmetic below is exact in binary floating point.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle [x0,x1] x [y0,y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains_point(self, x: float, y: float) -> bool:
        """Closed containment (used for domain preconditions)."""
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def contains_point_half_open(self, x: float, y: float) -> bool:
        """Half-open containment [x0,x1) x [y0,y1) (cell membership)."""
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def contains_rect(self, other: "Rect") -> bool:
        return (self.x0 <= other.x0 and other.x1 <= self.x1
                and self.y0 <= other.y0 and other.y1 <= self.y1)

    def intersect(self, other: "Rect") -> "Rect | None":
        x0 = max(self.x0, other.x0)
        y0 = max(self.y0, other.y0)
        x1 = min(self.x1, other.x1)
        y1 = min(self.y1, other.y1)
        if x0 < x1 and y0 < y1:
            return Rect(x0, y0, x1, y1)
        return None

    def overlaps_interior(self, other: "Rect") -> bool:
        return self.intersect(other) is not None

    def subtract(self, other: "Rect") -> list["Rect"]:
        """self minus other, as up to 4 interior-disjoint rectangles."""
        core = self.intersect(other)
        if core is None:
            return [self]
        pieces = []
        if self.y0 < core.y0:
            pieces.append(Rect(self.x0, self.y0, self.x1, core.y0))
        if core.y1 < self.y1:
            pieces.append(Rect(self.x0, core.y1, self.x1, self.y1))
        if self.x0 < core.x0:
            pieces.append(Rect(self.x0, core.y0, core.x0, core.y1))
        if core.x1 < self.x1:
            pieces.append(Rect(core.x1, core.y0, self.x1, core.y1))
        return pieces


@dataclass(frozen=True)
class Similarity:
    """p -> scale * p + translation; no rotation or reflection.

    Maps axis-aligned rectangles to axis-aligned rectangles, which is all
    the constructions here ever need.
    """

    scale: float
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("similarity scale must be positive")

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return self.scale * x + self.tx, self.scale * y + self.ty

    def apply_rect(self, r: Rect) -> Rect:
        x0, y0 = self.apply(r.x0, r.y0)
        x1, y1 = self.apply(r.x1, r.y1)
        return Rect(x0, y0, x1, y1)


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)
