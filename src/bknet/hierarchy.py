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

from .certificate import CertificateConstants, _pair_rows, schedule_constants, toy_constants
from .density import DensityField, _strips, constant_field
from .geometry import Rect, Similarity, UNIT_SQUARE, first_overlap

Segment = tuple[tuple[float, float], tuple[float, float]]

# Materializing a level-1 patch needs N explicit cells; anything past this
# cannot be represented, so refuse instead of thrashing.
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


def _segment_span(seg: Segment) -> tuple[float, float, float]:
    (ax, ay), (bx, by) = seg
    if ay != by:
        raise ValueError("segment must be horizontal")
    if not ax < bx:
        raise ValueError("segment endpoints must be ordered left to right")
    return ax, bx, ay


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
    patch_rect, cells, pairs, eps = _patch(seg, U, N, c, M, L)
    return DensityField(patch_rect, 1.0, tuple(cells)), pairs, eps


def _patch(seg: Segment, U: Rect, N: int, c: float, M: int, L: float,
           ) -> tuple[Rect, list[tuple[Rect, float]], list[Segment], float]:
    """embed_in_neighborhood's patch as its domain and cells, unvalidated:
    build_hierarchy checks every patch cell once, in the level field."""
    ax, bx, y = _segment_span(seg)
    lam = bx - ax
    if not (U.x0 <= ax and bx <= U.x1 and U.y0 <= y):
        raise ValueError("segment not contained in neighborhood")
    room = U.y1 - y
    if room <= 0:
        raise ValueError("neighborhood has no positive thickness above the segment")
    top = y + min(lam / N, room)
    eps = lam * lam * 0.5 * c / (8.0 * N * N * L * L)
    return (Rect(ax, y, bx, top), _strips(ax, lam, y, top, N, c),
            _pair_rows(ax, lam, y, top, N, M), eps)


def _disjoint_pairs(pairs: list[Segment], NM: int) -> list[Segment]:
    """Keep every other edge in each row so segments never share endpoints."""
    out = []
    for idx, seg in enumerate(pairs):
        if (idx % NM) % 2 == 0:
            out.append(seg)
    return out


def build_hierarchy(L: float, c: float, depth: int,
                    consts: CertificateConstants | None = None,
                    ) -> tuple[DensityField, SegmentHierarchy]:
    """Run the inductive construction for `depth` levels on the unit square.

    Level 0 is the constant-1 field with the single base segment
    (0,0)-(1,0) and budget 1.  Each later level replaces the field inside
    a thin neighborhood of every current segment by an embedded
    checkerboard patch and takes the patch pairs (alternating, so they
    stay disjoint) as the new segments.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if consts is None:
        consts = schedule_constants(L, c)
    N, M = consts.N, consts.M
    if N > MAX_MATERIALIZED_N:
        raise HierarchyDepthError(
            f"N={N} cannot be materialized as explicit cells: N must be at most "
            f"{MAX_MATERIALIZED_N:,}")

    field = constant_field(1.0)
    base: Segment = ((0.0, 0.0), (1.0, 0.0))
    levels = [HierarchyLevel(segments=(base,), neighborhoods=(), epsilon=1.0)]

    for level in range(1, depth + 1):
        prev = levels[-1]
        segs = prev.segments
        total_len = sum(b[0] - a[0] for a, b in segs)
        budget = prev.epsilon / 2.0
        # uniform thickness cap: half the budget, spread over total length
        h_cap = budget / (2.0 * total_len)
        if h_cap < 5e-324 * 4:
            raise HierarchyDepthError(
                f"level {level}: neighborhood thickness underflows ({h_cap})")

        new_segments: list[Segment] = []
        neighborhoods: list[Rect] = []
        patch_cells: list[tuple[Rect, float]] = []
        eps_level = None
        for seg in segs:
            ax, bx, y = _segment_span(seg)
            lam = bx - ax
            if lam < 1e-12:
                raise HierarchyDepthError(
                    f"level {level}: segment length {lam} below resolution")
            h = min(lam / N, h_cap)
            U = Rect(ax, y, bx, y + h)
            if not UNIT_SQUARE.contains_rect(U):
                raise HierarchyDepthError(
                    f"level {level}: neighborhood {U} leaves the unit square")
            patch_rect, cells, pairs, eps_patch = _patch(seg, U, N, c, M, L)
            patch_cells.extend(cells)
            new_segments.extend(_disjoint_pairs(pairs, N * M))
            neighborhoods.append(patch_rect)
            eps_level = eps_patch if eps_level is None else min(eps_level, eps_patch)
        field = field.replace_region(neighborhoods, patch_cells)

        levels.append(HierarchyLevel(
            segments=tuple(new_segments),
            neighborhoods=tuple(neighborhoods),
            epsilon=eps_level,
        ))

    hierarchy = SegmentHierarchy(tuple(levels))
    return field, hierarchy


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
        sim = Similarity(scale=r.width, tx=r.x0, ty=r.y0)
        # the cells of transplant(hfield, sim), checked once in the union
        cells.extend((sim.apply_rect(c), v) for c, v in hfield.cells)
    return DensityField(UNIT_SQUARE, 1.0, tuple(cells))
