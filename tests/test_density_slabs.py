"""The lookups' slab table against the scans it replaced: value_at and
values_at on guillotine subdivisions give the loop lookup's floats, values_at
gives the former scan's default for NaN, infinite and outside points, a
field whose table would exceed 4n + 1024 entries keeps the scan, and no
constructor builds a table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import DensityField, Rect, field_from_json, field_to_json
from oracles import scan_values_at

from test_density_columns import REAL, limit_density, loop_value_at, toy_hierarchy


# ---------------------------------------------------------------------------
# guillotine fields: the domain cut in two again and again, each cut
# vertical or horizontal, and some of the final pieces left to the default

FRACTIONS = [0.5, 0.25, 0.75, 1 / 3, 0.1, 0.9]


@st.composite
def guillotine_fields(draw, max_depth=5):
    x0 = draw(st.sampled_from([0.0, -0.0, -1.0, -1 / 3, 0.5]))
    y0 = draw(st.sampled_from([0.0, -0.0, -2.0, -0.1, 1e-3]))
    w = draw(st.sampled_from([1.0, 2.0, 0.3, 7.0]))
    h = draw(st.sampled_from([1.0, 0.5, 3.0, 1 / 3]))
    cells = []

    def cut(r, depth):
        if depth and draw(st.integers(0, 3)):
            vertical = draw(st.booleans())
            a, b = (r.x0, r.x1) if vertical else (r.y0, r.y1)
            # a cut at 0.0 or -0.0 where the piece straddles zero
            at = draw(st.sampled_from([0.0, -0.0])) if a < 0.0 < b and draw(st.booleans()) \
                else a + (b - a) * draw(st.sampled_from(FRACTIONS))
            if a < at < b:
                if vertical:
                    cut(Rect(r.x0, r.y0, at, r.y1), depth - 1)
                    cut(Rect(at, r.y0, r.x1, r.y1), depth - 1)
                else:
                    cut(Rect(r.x0, r.y0, r.x1, at), depth - 1)
                    cut(Rect(r.x0, at, r.x1, r.y1), depth - 1)
                return
        if draw(st.integers(0, 3)):
            cells.append((r, draw(st.floats(0.25, 4.0))))

    domain = Rect(x0, y0, x0 + w, y0 + h)
    cut(domain, max_depth)
    return DensityField(domain, draw(st.floats(0.25, 4.0)), tuple(cells))


def edge_probes(field, step=1):
    """Every step-th cell's corners and edge midpoints, the domain's corners
    and points on its top and right sides, each also with a 0.0 coordinate
    written as -0.0."""
    d = field.domain
    pts = [(d.x0, d.y0), (d.x1, d.y0), (d.x0, d.y1), (d.x1, d.y1),
           (d.x1, (d.y0 + d.y1) / 2), ((d.x0 + d.x1) / 2, d.y1)]
    for r, _ in field.cells[::step]:
        mx, my = (r.x0 + r.x1) / 2, (r.y0 + r.y1) / 2
        pts += [(r.x0, r.y0), (r.x1, r.y0), (r.x0, r.y1), (r.x1, r.y1),
                (mx, r.y0), (mx, r.y1), (r.x0, my), (r.x1, my), (d.x1, my), (mx, d.y1)]
    pts += [(-0.0 if x == 0.0 else x, -0.0 if y == 0.0 else y) for x, y in pts]
    return pts


def assert_lookups_match_loop(field, pts):
    want = [loop_value_at(field, x, y) for x, y in pts]
    got = [field.value_at(x, y) for x, y in pts]
    assert all(type(v) is float for v in got)
    assert got == want
    assert field.values_at([x for x, _ in pts], [y for _, y in pts]).tolist() == want


def strips_beside_bands(k):
    """k full-height strips on the left half of the unit square beside k
    stacked bands on the right half: k * k + k slab entries for 2k cells."""
    strips = [(Rect(0.5 * i / k, 0.0, 0.5 * (i + 1) / k, 1.0), 2.0 + i % 3) for i in range(k)]
    bands = [(Rect(0.5, j / k, 1.0, (j + 1) / k), 3.0 + j % 5) for j in range(k)]
    return DensityField(Rect(0.0, 0.0, 1.0, 1.0), 1.5, tuple(strips + bands))


ODD = [math.nan, math.inf, -math.inf, 1e300, -1e300]


def odd_probes(field):
    """NaN and infinite coordinates, and points just outside the domain on
    every side, each paired with points inside."""
    d = field.domain
    mx, my = (d.x0 + d.x1) / 2, (d.y0 + d.y1) / 2
    pts = [(a, b) for a in ODD + [mx] for b in ODD + [my]]
    pts += [(float(np.nextafter(d.x1, math.inf)), my), (float(np.nextafter(d.x0, -math.inf)), my),
            (mx, float(np.nextafter(d.y1, math.inf))), (mx, float(np.nextafter(d.y0, -math.inf))),
            (d.x1, d.y1), (d.x0 - 1.0, d.y0 - 1.0)]
    return pts


# ---------------------------------------------------------------------------

class TestGuillotineFields:
    @given(guillotine_fields(), st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                                         max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_lookups_match_loop(self, field, fractions):
        d = field.domain
        pts = edge_probes(field)
        pts += [(min(d.x1, d.x0 + u * d.width), min(d.y1, d.y0 + v * d.height))
                for u, v in fractions]
        assert_lookups_match_loop(field, pts)
        assert (np.diff(field._slabs[0][2]) > 0).all()

    @given(guillotine_fields())
    @settings(max_examples=200, deadline=None)
    def test_odd_points_get_the_scans_answer(self, field):
        pts = odd_probes(field)
        xs, ys = np.array([x for x, _ in pts]), np.array([y for _, y in pts])
        got = field.values_at(xs, ys).tolist()
        assert got == scan_values_at(field, xs, ys).tolist()
        d = field.domain
        assert all(v == field.default for v, (x, y) in zip(got, pts) if not d.contains_point(x, y))


class TestEntryBound:
    def test_strips_beside_bands_keep_the_scan(self):
        field = strips_beside_bands(1000)
        assert field._slabs is None
        rng = np.random.default_rng(5)
        pts = edge_probes(field, step=97)
        pts += [tuple(p) for p in rng.random((100, 2))]
        assert_lookups_match_loop(field, pts)
        pts = odd_probes(field)
        xs, ys = np.array([x for x, _ in pts]), np.array([y for _, y in pts])
        assert field.values_at(xs, ys).tolist() == scan_values_at(field, xs, ys).tolist()

    @pytest.mark.parametrize("k,table", [(35, True), (36, False)])
    def test_the_bound_is_4n_plus_1024(self, k, table):
        # 35 * 36 = 1260 entries against a bound of 1304; 36 * 37 = 1332
        # against 1312
        field = strips_beside_bands(k)
        assert (field._slabs is not None) == table
        if table:
            assert len(field._slabs[0][2]) == k * k + k
        assert_lookups_match_loop(field, edge_probes(field))

    @pytest.mark.parametrize("make", REAL)
    def test_library_fields_build_a_table_within_the_bound(self, make):
        field = make()
        n = len(field.cells)
        assert field._slabs is not None
        assert n <= len(field._slabs[0][2]) <= 4 * n + 1024
        assert (np.diff(field._slabs[0][2]) > 0).all()

    def test_depth4_limit_has_about_one_entry_per_cell(self):
        field = limit_density(4)
        assert len(field._slabs[0][2]) <= 1.1 * len(field.cells)


class TestLaziness:
    def test_no_constructor_builds_a_table(self):
        field, _ = toy_hierarchy(4, 3)
        back = field_from_json(field_to_json(field))
        cut = field.replace_region([Rect(0.0, 0.0, 0.5, 0.5)], [])
        for f in (field, back, cut, limit_density(3)):
            assert "_slabs" not in vars(f)
        field.value_at(0.5, 0.5)
        back.values_at([0.5], [0.5])
        assert "_slabs" in vars(field) and "_slabs" in vars(back)
