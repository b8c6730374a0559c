"""Axis-aligned rectangles and axis-aligned similarities.

All constructions in this package live on axis-aligned rectangles whose
corners are dyadic rationals whenever we control them, so intersection
and area arithmetic below is exact in binary floating point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

_PAIR_CHUNK = 1 << 20      # candidate pairs per chunk of _meeting_pairs


@dataclass(frozen=True, slots=True, init=False)
class Rect:
    """Closed axis-aligned rectangle [x0,x1] x [y0,y1].

    Slotted, and built by a hand-written __init__ that stores the fields
    through the slots' descriptors: the density code makes one Rect per
    cell, strip and piece, and this halves the cost of each."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __init__(self, x0: float, y0: float, x1: float, y1: float):
        _set_x0(self, x0)
        _set_y0(self, y0)
        _set_x1(self, x1)
        _set_y1(self, y1)
        if not (x0 < x1 and y0 < y1):
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


# the slots' setters, which a frozen dataclass's own __setattr__ refuses
_set_x0, _set_y0, _set_x1, _set_y1 = (f.__set__ for f in (Rect.x0, Rect.y0, Rect.x1, Rect.y1))


def first_overlap(rects: Sequence[Rect] | np.ndarray) -> tuple[int, int] | None:
    """Indices (i, j), i < j, of a pair of rects whose interiors meet, or
    None if they are pairwise interior-disjoint.  Takes Rects or an (n, 4)
    array of rows x0, y0, x1, y1; the pair is _meeting_pairs' first."""
    box = rects if isinstance(rects, np.ndarray) else _boxes(rects)
    for a, b in _meeting_pairs(box):
        if len(a):
            return int(min(a[0], b[0])), int(max(a[0], b[0]))
    return None


def _boxes(rects) -> np.ndarray:
    """The rects as an (n, 4) float array of rows x0, y0, x1, y1."""
    return np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=float).reshape(-1, 4)


def _runs(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, a): a from start[r] to start[r] + length[r] - 1 for each row r
    in turn, each a with its row."""
    row = np.repeat(np.arange(len(start)), length)
    a = np.arange(len(row)) - np.repeat(np.cumsum(length) - length - start, length)
    return row, a


def _meeting_pairs(box: np.ndarray, chunk: int = _PAIR_CHUNK):
    """Yield index arrays (a, b) of the boxes (rows x0, y0, x1, y1) whose
    interiors meet, each pair once, in chunks of about `chunk` candidates (a
    chunk may be empty).  In a stable x0 order, box a is tested on y against
    each later box b whose x0 lies below its x1; pairs run in that order."""
    n = len(box)
    order = np.argsort(box[:, 0], kind="stable")
    s = box[order]
    cnt = np.searchsorted(s[:, 0], s[:, 2], side="left") - np.arange(n) - 1
    starts = np.concatenate([[0], np.cumsum(cnt)])     # row r's first candidate
    first = 0
    while first < n:
        last = max(first + 1, int(np.searchsorted(starts, starts[first] + chunk, side="right")) - 1)
        a, b = _runs(np.arange(first + 1, last + 1), cnt[first:last])
        a += first
        meet = (s[b, 1] < s[a, 3]) & (s[a, 1] < s[b, 3])
        yield order[a[meet]], order[b[meet]]
        first = last


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
        for name in ("scale", "tx", "ty"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"similarity {name} must be finite, got {getattr(self, name)}")
        if not self.scale > 0:
            raise ValueError("similarity scale must be positive")

    def apply(self, x: float, y: float) -> tuple[float, float]:
        return self.scale * x + self.tx, self.scale * y + self.ty

    def apply_rect(self, r: Rect) -> Rect:
        x0, y0 = self.apply(r.x0, r.y0)
        x1, y1 = self.apply(r.x1, r.y1)
        return Rect(x0, y0, x1, y1)


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)
