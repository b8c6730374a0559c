"""Hierarchical checkerboard densities.

Each level plants a rescaled checkerboard patch in a thin rectangular
neighborhood of every segment produced by the previous level; the marked
horizontal edges of the patch become the next level's segments.  The
total neighborhood area of level i must stay below half of the previous
level's mismatch budget, which is what forces the neighborhoods (and the
patches inside them) to get thinner: patches are clipped vertically when
the budget does not allow their natural height.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificate import CertificateConstants, schedule_constants, toy_constants
from .density import (DensityField, _as_pairs, _grid_columns, _grid_rows, _strips,
                      constant_field)
from .geometry import Rect, UNIT_SQUARE, first_overlap

Segment = tuple[tuple[float, float], tuple[float, float]]

# A level may make at most this many cells and this many next-level segments
# (a level-1 patch alone needs N cells); past it, refuse instead of thrashing.
MAX_MATERIALIZED_N = 10 ** 6


class HierarchyDepthError(ValueError):
    """Raised when neighborhood widths underflow or cell counts explode."""


@dataclass(frozen=True)
class HierarchyLevel:
    segments: tuple[Segment, ...]        # segments generated at this level
    neighborhoods: tuple[Rect, ...]      # patch neighborhoods used to build it
    epsilon: float                       # mismatch budget of this level


@dataclass(frozen=True)
class SegmentHierarchy:
    levels: tuple[HierarchyLevel, ...]

    def validate(self) -> None:
        """Check disjointness and the per-level area budget."""
        for i, lvl in enumerate(self.levels):
            if first_overlap(lvl.neighborhoods) is not None:
                raise AssertionError(f"level {i}: overlapping neighborhoods")
            if i >= 1:
                total = self.neighborhood_area(i)
                budget = self.levels[i - 1].epsilon / 2.0
                if not total < budget:
                    raise AssertionError(
                        f"level {i}: neighborhood area {total} >= budget {budget}")

    def neighborhood_area(self, level: int) -> float:
        return sum(r.area for r in self.levels[level].neighborhoods)


def embed_in_neighborhood(seg: Segment, U: Rect, N: int, c: float,
                          M: int, L: float) -> tuple[DensityField, list[Segment], float]:
    """Plant a rescaled checkerboard over a horizontal segment.

    The thin rectangle [0,1] x [0,1/N] is scaled by the segment length and
    translated so its bottom edge coincides with `seg`.  If U is shorter
    than the natural patch height, the patch is clipped to U's height
    (this is how the hierarchy meets its area budget).  Returns the patch
    field, the rescaled marked pairs that fall inside the patch, and the
    mismatch budget eps scaled by (segment length)^2.
    """
    (ax, y), (bx, by) = seg
    if y != by:
        raise ValueError("segment must be horizontal")
    if not ax < bx:
        raise ValueError("segment endpoints must be ordered left to right")
    lam = bx - ax
    if not (U.x0 <= ax and bx <= U.x1 and U.y0 <= y):
        raise ValueError("segment not contained in neighborhood")
    room = U.y1 - y
    if room <= 0:
        raise ValueError("neighborhood has no positive thickness above the segment")
    top = y + min(lam / N, room)
    xs = _grid_columns(ax, bx, N, M)
    field = DensityField(Rect(ax, y, bx, top), 1.0, tuple(_strips(xs, y, top, M, c)))
    return field, _as_pairs(xs, *_grid_rows(ax, bx, y, top, N, M)), _eps(lam, N, c, L)


def _eps(lam, N: int, c: float, L: float):
    """The mismatch budget of a patch on a segment of length lam."""
    return lam * lam * 0.5 * c / (8.0 * N * N * L * L)


def _kept_rows(lam, y, top, N: int, M: int) -> int:
    """How many marked rows y + lam * s / NM, s = 0..M, the patches keep
    below their tops, as _grid_rows makes and keeps them, counted without
    making them: the height is monotone in s in floats, so each patch keeps
    s = 0 up to a bound found by bisection."""
    lo = np.zeros(len(lam), dtype=np.intp)      # kept: y itself is below top
    hi = np.full(len(lam), M + 1, dtype=np.intp)  # dropped, or past the last row
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        kept = y + lam * mid / (N * M) <= top
        lo, hi = np.where(kept, mid, lo), np.where(kept, hi, mid)
    return int(hi.sum())


def build_hierarchy(L: float, c: float, depth: int,
                    consts: CertificateConstants | None = None,
                    ) -> tuple[DensityField, SegmentHierarchy]:
    """Run the inductive construction for `depth` levels on the unit square.

    Level 0 is the constant-1 field with the single base segment
    (0,0)-(1,0) and budget 1.  Each later level replaces the field inside
    a thin neighborhood of every current segment by an embedded
    checkerboard patch and takes the patch pairs (alternating, so they
    stay disjoint) as the new segments.  A level is built in one step from
    its segments as columns, and refused before it makes a cell or segment
    when it would make more than MAX_MATERIALIZED_N of either.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if consts is None:
        consts = schedule_constants(L, c)
    if (consts.L, consts.c) != (L, c):
        raise ValueError(f"consts were made for L={consts.L}, c={consts.c}, "
                         f"not for L={L}, c={c}")
    N, M = consts.N, consts.M

    field = constant_field(1.0)
    levels = [HierarchyLevel(segments=(((0.0, 0.0), (1.0, 0.0)),), neighborhoods=(), epsilon=1.0)]
    # the current level's segments (ax, y)-(bx, y) as columns
    ax, y, bx = np.array([0.0]), np.array([0.0]), np.array([1.0])

    for level in range(1, depth + 1):
        lam = bx - ax
        total_len = sum(lam.tolist())
        budget = levels[-1].epsilon / 2.0
        # uniform thickness cap: half the budget, spread over total length
        h_cap = budget / (2.0 * total_len)
        if h_cap < 5e-324 * 4:
            raise HierarchyDepthError(
                f"level {level}: neighborhood thickness underflows ({h_cap})")
        # each segment's neighborhood U = [ax, bx] x [y, u1] must be a
        # rectangle in the unit square, and the segment long enough
        u1 = y + np.minimum(lam / N, h_cap)
        ok = (lam >= 1e-12) & (y < u1) & (0.0 <= ax) & (bx <= 1.0) & (0.0 <= y) & (u1 <= 1.0)
        if not ok.all():
            n = int(ok.argmin())    # the first bad segment
            if lam[n] < 1e-12:
                raise HierarchyDepthError(
                    f"level {level}: segment length {float(lam[n])} below resolution")
            U = Rect(*(float(v[n]) for v in (ax, y, bx, u1)))
            raise HierarchyDepthError(f"level {level}: neighborhood {U} leaves the unit square")
        top = y + np.minimum(lam / N, u1 - y)   # the patch, clipped to U
        rows = _kept_rows(lam, y, top, N, M)
        for what, count in (("cells", len(lam) * N), ("segments", rows * ((N * M + 1) // 2))):
            if count > MAX_MATERIALIZED_N:
                raise HierarchyDepthError(
                    f"level {level} would make {count:,} {what}: at most "
                    f"{MAX_MATERIALIZED_N:,} can be materialized")

        patch, py = _grid_rows(ax, bx, y, top, N, M)
        neighborhoods = tuple(map(Rect, ax.tolist(), y.tolist(), bx.tolist(), top.tolist()))
        xs = _grid_columns(ax, bx, N, M)
        field = field.replace_region(neighborhoods, _strips(xs, y, top, M, c))
        levels.append(HierarchyLevel(
            segments=tuple(_as_pairs(xs, patch, py, step=2)),
            neighborhoods=neighborhoods,
            epsilon=float(_eps(lam, N, c, L).min()),
        ))
        # the kept edges, even p in each marked row, share no endpoint
        ax, bx = xs[patch, :-1:2].ravel(), xs[patch, 1::2].ravel()
        y = np.repeat(py, (N * M + 1) // 2)

    return field, SegmentHierarchy(tuple(levels))


def assemble_limit_density(c: float, squares: list[tuple[Rect, int]]) -> DensityField:
    """Glue transplanted hierarchy fields into the unit square.

    The k-th square carries the depth-k hierarchy field with amplitude
    min(c, 1/k); the field is 1 elsewhere.  Desk-scale grid constants are
    used per square (the scheduled constants cannot be materialized).
    """
    if not c > 0:
        raise ValueError("c must be positive")
    for r, _ in squares:
        if not UNIT_SQUARE.contains_rect(r):
            raise ValueError(f"square {r} not contained in the unit square")
    pair = first_overlap([r for r, _ in squares])
    if pair is not None:
        i, j = pair
        raise ValueError(f"overlapping squares: {squares[i][0]} and {squares[j][0]}")

    cells: list[tuple[Rect, float]] = []
    for r, k in squares:
        if k < 1:
            raise ValueError("square index k must be >= 1")
        if abs(r.width - r.height) > 1e-12:
            raise ValueError(f"region {r} is not a square")
        ck = min(c, 1.0 / k)
        Lk = float(k + 1)
        hfield, _ = build_hierarchy(Lk, ck, depth=k, consts=toy_constants(L=Lk, c=ck))
        # the cells of transplant(hfield, Similarity(r.width, r.x0, r.y0)),
        # by the same multiply and add per coordinate, checked once in the union
        box, val = hfield._columns
        cols = (r.width * box + (r.x0, r.y0, r.x0, r.y0)).T.tolist()
        cells.extend(zip(map(Rect, *cols), val.tolist()))
    return DensityField(UNIT_SQUARE, 1.0, tuple(cells))
