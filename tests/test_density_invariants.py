"""The density rules live in DensityField's constructor, the boxes whose
interiors meet are found by one pair enumerator (geometry._meeting_pairs,
behind first_overlap and replace_region), and a hierarchy level is
written with one batched replace_region.  Each fast
path is checked against a slow oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import (
    DensityField,
    Rect,
    UNIT_SQUARE,
    assemble_limit_density,
    build_hierarchy,
    constant_field,
    toy_constants,
)
from bknet.geometry import _PAIR_CHUNK, _meeting_pairs, first_overlap
from bknet.hierarchy import HierarchyLevel, SegmentHierarchy
from bknet.netbuild import NetPlan, ScheduleEntry


def brute_force_overlap(rects):
    return any(rects[i].intersect(rects[j]) is not None
               for i in range(len(rects)) for j in range(i + 1, len(rects)))


def sweep_first_overlap(rects):
    """The sweep first_overlap ran before the pair enumerator: in x0 order,
    a rect stays active while its x-extent reaches past the current x0."""
    active = []
    for i in sorted(range(len(rects)), key=lambda n: rects[n].x0):
        r = rects[i]
        active = [(j, a) for j, a in active if a.x1 > r.x0]
        for j, a in active:
            if a.y0 < r.y1 and r.y0 < a.y1:
                return min(i, j), max(i, j)
        active.append((i, r))
    return None


def boxes(rects):
    return np.array([(r.x0, r.y0, r.x1, r.y1) for r in rects], dtype=float).reshape(-1, 4)


def replace_one_region(field, region, new_cells):
    """The replacement build_hierarchy made once per segment before levels
    were batched: subtract one region from every cell, append its cells."""
    kept = []
    for cell, v in field.cells:
        for piece in cell.subtract(region):
            kept.append((piece, v))
    kept.extend(new_cells)
    return DensityField(field.domain, field.default, tuple(kept))


def cell_bytes(field):
    return np.array([[r.x0, r.y0, r.x1, r.y1, v] for r, v in field.cells]).tobytes()


# Coordinates on a 0..4 grid, so shared edges, nested rects and identical
# rects all come up often.
grid_rects = st.builds(
    lambda x, y, w, h: Rect(float(x), float(y), float(min(x + w, 4)), float(min(y + h, 4))),
    st.integers(0, 3), st.integers(0, 3), st.integers(1, 4), st.integers(1, 4))


def disjoint_rects(draws):
    """Keep each drawn rect that meets none kept before it."""
    kept = []
    for r in draws:
        if all(r.intersect(k) is None for k in kept):
            kept.append(r)
    return kept


class TestFirstOverlap:
    @given(st.lists(grid_rects, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_intersect(self, rects):
        pair = first_overlap(rects)
        assert (pair is not None) == brute_force_overlap(rects)
        if pair is not None:
            i, j = pair
            assert i < j and rects[i].intersect(rects[j]) is not None

    def test_shared_edges_and_corners_are_disjoint(self):
        rects = [Rect(0, 0, 1, 1), Rect(1, 0, 2, 1), Rect(0, 1, 1, 2), Rect(1, 1, 2, 2)]
        assert first_overlap(rects) is None

    def test_nested_and_identical(self):
        assert first_overlap([Rect(0, 0, 4, 4), Rect(5, 5, 6, 6), Rect(1, 1, 2, 2)]) == (0, 2)
        assert first_overlap([Rect(0, 0, 1, 1), Rect(0, 0, 1, 1)]) == (0, 1)

    def test_empty_and_single(self):
        assert first_overlap([]) is None
        assert first_overlap([UNIT_SQUARE]) is None

    def test_names_the_earliest_box_with_a_later_meeting_one(self):
        # sorted by x0 the boxes stay in this order; box 0 meets box 3, and
        # box 1 meets box 2.  The former sweep named the latest box with an
        # earlier meeting one, (1, 2).
        rects = [Rect(3, 5, 6, 7), Rect(3, 0, 6, 3), Rect(5, 2, 8, 3), Rect(5, 5, 6, 7)]
        assert sweep_first_overlap(rects) == (1, 2)
        assert first_overlap(rects) == first_overlap(boxes(rects)) == (0, 3)

    @given(st.lists(grid_rects, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_none_exactly_when_the_former_sweep_finds_none(self, rects):
        pair = first_overlap(rects)
        assert (pair is None) == (sweep_first_overlap(rects) is None)
        assert pair == first_overlap(boxes(rects))
        if pair is not None:
            i, j = pair
            assert i < j and rects[i].intersect(rects[j]) is not None


class TestMeetingPairs:
    @pytest.mark.parametrize("chunk", [1, 2, 7, _PAIR_CHUNK])
    @given(rects=st.lists(grid_rects, max_size=16))
    @settings(max_examples=150, deadline=None)
    def test_every_meeting_pair_once(self, chunk, rects):
        got = [(int(a), int(b)) for pa, pb in _meeting_pairs(boxes(rects), chunk)
               for a, b in zip(pa, pb)]
        want = {(i, j) for i in range(len(rects)) for j in range(i + 1, len(rects))
                if rects[i].intersect(rects[j]) is not None}
        assert len(got) == len(want)
        assert {(min(p), max(p)) for p in got} == want

    def test_many_full_width_strips(self):
        # every strip is a candidate for every later one: 1,999,000 pairs
        n = 2000
        strips = np.column_stack([np.zeros(n), np.arange(n) / n,
                                  np.ones(n), np.arange(1, n + 1) / n])
        chunks = [len(a) for a, _ in _meeting_pairs(strips, 1 << 16)]
        assert len(chunks) > 1 and sum(chunks) == 0
        assert first_overlap(strips) is None
        strips[7, 3] = 8.5 / n      # strip 7 now reaches halfway into strip 8
        assert first_overlap(strips) == (7, 8)


class TestConstructorRules:
    def test_overlapping_cells_rejected(self):
        # value_at would take the first cell (2.0) at (0.25, 0.5) while
        # integrate would sum both cells over [0, 0.5] x [0, 1].
        with pytest.raises(ValueError, match="cells 0 and 1"):
            DensityField(UNIT_SQUARE, 1.0, ((Rect(0.0, 0.0, 1.0, 1.0), 2.0),
                                            (Rect(0.0, 0.0, 0.5, 1.0), 3.0)))

    def test_cells_sharing_an_edge_accepted(self):
        f = DensityField(UNIT_SQUARE, 1.0, ((Rect(0.0, 0.0, 0.5, 1.0), 2.0),
                                            (Rect(0.5, 0.0, 1.0, 1.0), 3.0)))
        assert f.value_at(0.5, 0.5) == 3.0
        assert f.integrate(UNIT_SQUARE) == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_cell_value_rejected(self, bad):
        with pytest.raises(ValueError, match="cell 1"):
            DensityField(UNIT_SQUARE, 1.0, ((Rect(0.0, 0.0, 0.5, 1.0), 2.0),
                                            (Rect(0.5, 0.0, 1.0, 1.0), bad)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_default_rejected(self, bad):
        with pytest.raises(ValueError, match="domain"):
            constant_field(bad)

    def test_non_finite_domain_rejected(self):
        with pytest.raises(ValueError, match="domain"):
            DensityField(Rect(0.0, 0.0, math.inf, 1.0), 1.0)

    def test_cell_outside_domain_rejected(self):
        with pytest.raises(ValueError, match="cell 0"):
            DensityField(UNIT_SQUARE, 1.0, ((Rect(0.5, 0.5, 1.5, 1.0), 2.0),))


class TestCallerOverlapChecks:
    def test_net_plan_squares(self):
        with pytest.raises(ValueError, match="schedule squares overlap"):
            NetPlan(constant_field(1.0), (ScheduleEntry(Rect(0, 0, 16, 16), 16, 4),
                                          ScheduleEntry(Rect(8, 8, 72, 72), 64, 8)))

    def test_limit_density_squares(self):
        a, b = Rect(0.5, 0.5, 1.0, 1.0), Rect(0.25, 0.25, 0.75, 0.75)
        with pytest.raises(ValueError, match=re.escape(f"overlapping squares: {a} and {b}")):
            assemble_limit_density(0.5, [(a, 1), (Rect(0.0, 0.0, 0.125, 0.125), 2), (b, 2)])

    def test_hierarchy_validate(self):
        lvl = HierarchyLevel(segments=(), epsilon=1.0,
                             neighborhoods=(Rect(0.0, 0.0, 0.5, 0.1), Rect(0.4, 0.05, 0.6, 0.2)))
        with pytest.raises(AssertionError, match="level 0: overlapping neighborhoods"):
            SegmentHierarchy((lvl,)).validate()


class TestBatchedReplaceRegion:
    @pytest.mark.parametrize("N,depth", [(3, 3), (4, 3), (5, 3), (4, 4)])
    def test_every_hierarchy_level_matches_per_region_fold(self, N, depth):
        consts = toy_constants(2.0, 1.0, N=N, M=2)
        prev, _ = build_hierarchy(2.0, 1.0, 0, consts)
        for d in range(1, depth + 1):
            field, hier = build_hierarchy(2.0, 1.0, d, consts)
            regions = hier.levels[d].neighborhoods
            patches = [[(r, v) for r, v in field.cells if U.contains_rect(r)] for U in regions]
            oracle = prev
            for U, cells in zip(regions, patches):
                oracle = replace_one_region(oracle, U, cells)
            batched = prev.replace_region(list(regions), [c for p in patches for c in p])
            assert cell_bytes(batched) == cell_bytes(oracle) == cell_bytes(field)
            assert batched == oracle == field
            prev = field

    @given(st.lists(grid_rects, max_size=10), st.lists(grid_rects, min_size=1, max_size=6),
           st.lists(st.sampled_from([1.5, 2.0, 3.0]), min_size=16, max_size=16),
           st.lists(st.integers(1, 4), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_random_disjoint_regions_match_per_region_fold(self, cell_draws, region_draws,
                                                           values, splits):
        domain = Rect(0.0, 0.0, 4.0, 4.0)
        cells = tuple(zip(disjoint_rects(cell_draws), values))
        field = DensityField(domain, 1.0, cells)
        regions = disjoint_rects(region_draws)
        patches = []
        for U, k in zip(regions, splits):
            # k vertical strips over the bottom half of the region
            top = U.y0 + U.height / 2
            patches.append([(Rect(U.x0 + s * U.width / k, U.y0,
                                  U.x0 + (s + 1) * U.width / k, top), 2.0 + s)
                            for s in range(k)])
        oracle = field
        for U, p in zip(regions, patches):
            oracle = replace_one_region(oracle, U, p)
        batched = field.replace_region(regions, [c for p in patches for c in p])
        assert cell_bytes(batched) == cell_bytes(oracle)

    def test_new_cell_outside_its_region_is_rejected(self):
        field = DensityField(UNIT_SQUARE, 1.0, ((Rect(0.0, 0.0, 1.0, 0.5), 2.0),))
        with pytest.raises(ValueError, match="overlap"):
            field.replace_region([Rect(0.0, 0.0, 0.5, 0.5)],
                                 [(Rect(0.0, 0.0, 0.75, 0.25), 3.0)])
