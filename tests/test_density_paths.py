"""The density pipeline's column paths against their former per-object
versions: the JSON writer against the json.dumps document it replaced and
against the writer that formatted every number,
value_at against values_at and the loop lookup, build_net's column-scaled
integrals against the transplanted field, and build_hierarchy's unvalidated
patches against embed_in_neighborhood."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bknet import (
    DensityField,
    Rect,
    Similarity,
    UNIT_SQUARE,
    build_hierarchy,
    build_net,
    constant_field,
    embed_in_neighborhood,
    field_from_json,
    field_to_json,
    make_plan,
    reciprocal_transplant,
    toy_constants,
)
from bknet.density import DomainError
from bknet.hierarchy import (
    HierarchyDepthError,
    HierarchyLevel,
    MAX_MATERIALIZED_N,
    SegmentHierarchy,
)
from bknet.netbuild import NetPlan, ScheduleEntry

from oracles import field_to_json_per_number
from test_density_columns import REAL, cell_bytes, loop_integrate, loop_targets, loop_value_at


# ---------------------------------------------------------------------------
# oracles: the former per-object versions

def dumps_field(field):
    """field_to_json as it was: a document of ".17g" strings through
    json.dumps with an indent."""
    def num(x):
        return format(x, ".17g")

    def rect(r):
        return {"x0": num(r.x0), "y0": num(r.y0), "x1": num(r.x1), "y1": num(r.y1)}

    doc = {
        "domain": rect(field.domain),
        "default": num(field.default),
        "cells": [{"rect": rect(r), "value": num(v)} for r, v in field.cells],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def transplant_build_net(plan):
    """build_net's per-cell fill as it was, integrating a validated
    reciprocal_transplant field per square; (points, tags, counts,
    integrals)."""
    points, tags, counts, integrals = [], [], [], []
    dom = plan.density.domain
    for idx, e in enumerate(plan.schedule, start=1):
        scale = e.side / dom.width
        phi = Similarity(scale, e.square.x0 - dom.x0 * scale, e.square.y0 - dom.y0 * scale)
        rho_k = reciprocal_transplant(plan.density, phi)
        cell = e.side / e.m
        n_arr = np.zeros((e.m, e.m), dtype=int)
        mass = np.zeros((e.m, e.m))
        for i in range(e.m):
            for j in range(e.m):
                T = Rect(e.square.x0 + i * cell, e.square.y0 + j * cell,
                         e.square.x0 + (i + 1) * cell, e.square.y0 + (j + 1) * cell)
                integral = loop_integrate(rho_k, T)
                n = int(math.floor(math.sqrt(integral)))
                n_arr[i, j] = n
                mass[i, j] = integral
                step = cell / n
                ux = T.x0 + step * (np.arange(n) + 0.5)
                uy = T.y0 + step * (np.arange(n) + 0.5)
                gx, gy = np.meshgrid(ux, uy, indexing="ij")
                points.append(np.column_stack([gx.ravel(), gy.ravel()]))
                tags.append(np.full(n * n, idx, dtype=int))
        counts.append(n_arr)
        integrals.append(mass)
    if not points:
        return np.zeros((0, 2)), np.zeros(0, dtype=int), counts, integrals
    return np.vstack(points), np.concatenate(tags), counts, integrals


def embed_build_hierarchy(L, c, depth, consts):
    """build_hierarchy as it was: one validated embed_in_neighborhood field
    per segment."""
    N, M = consts.N, consts.M
    if N > MAX_MATERIALIZED_N:
        raise HierarchyDepthError("N too large")
    field = constant_field(1.0)
    levels = [HierarchyLevel(segments=(((0.0, 0.0), (1.0, 0.0)),), neighborhoods=(),
                             epsilon=1.0)]
    for level in range(1, depth + 1):
        prev = levels[-1]
        total_len = sum(b[0] - a[0] for a, b in prev.segments)
        h_cap = prev.epsilon / 2.0 / (2.0 * total_len)
        new_segments, neighborhoods, patch_cells = [], [], []
        eps_level = None
        for seg in prev.segments:
            (ax, y), (bx, _) = seg
            U = Rect(ax, y, bx, y + min((bx - ax) / N, h_cap))
            assert UNIT_SQUARE.contains_rect(U)
            patch, pairs, eps_patch = embed_in_neighborhood(seg, U, N, c, M, L)
            patch_cells.extend(patch.cells)
            new_segments.extend(pair for n, pair in enumerate(pairs) if n % (N * M) % 2 == 0)
            neighborhoods.append(patch.domain)
            eps_level = eps_patch if eps_level is None else min(eps_level, eps_patch)
        field = field.replace_region(neighborhoods, patch_cells)
        levels.append(HierarchyLevel(tuple(new_segments), tuple(neighborhoods), eps_level))
    return field, SegmentHierarchy(tuple(levels))


# ---------------------------------------------------------------------------
# fields on grids of arbitrary breakpoints: negative, non-dyadic and
# e-notation coordinates, cells on a subset of the grid, values down to the
# smallest subnormal and up to 1e300

SPECIAL = [1e-300, 1e300, 5e-324, 0.1, 1.0 / 3.0, 2.0 ** -60]
coords = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                   st.sampled_from([0.0, -1e-300, 1e-300, 5e-324, -0.1, 1.0 / 3.0, 1e300]))
field_values = st.one_of(st.sampled_from(SPECIAL),
                         st.floats(5e-324, 1e300, allow_nan=False, allow_subnormal=True))


@st.composite
def grid_fields(draw, max_cells=6):
    xs = sorted(draw(st.lists(coords, min_size=2, max_size=5, unique=True)))
    ys = sorted(draw(st.lists(coords, min_size=2, max_size=5, unique=True)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(xs) - 2), st.integers(0, len(ys) - 2)),
                          max_size=max_cells, unique=True))
    cells = tuple((Rect(xs[i], ys[j], xs[i + 1], ys[j + 1]), draw(field_values))
                  for i, j in picks)
    return DensityField(Rect(xs[0], ys[0], xs[-1], ys[-1]), draw(field_values), cells)


def breakpoints(field):
    """The field's grid lines: cell and domain edges."""
    d = field.domain
    xs = {d.x0, d.x1} | {v for r, _ in field.cells for v in (r.x0, r.x1)}
    ys = {d.y0, d.y1} | {v for r, _ in field.cells for v in (r.y0, r.y1)}
    return sorted(xs), sorted(ys)


# fields whose numbers repeat and sit at the ends of the float range:
# coordinates drawn from a few values each, zeros signed per cell (so -0.0
# stands beside 0.0 with another bit pattern), subnormals and coordinates
# near 1e308; values picked from a pool of at most three

EDGE = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.25, 1.0 / 3.0, 1e300, 1e308,
        1.7976931348623157e308]
edge_coords = st.one_of(st.sampled_from(EDGE), st.sampled_from(EDGE).map(lambda v: -v), coords)


@st.composite
def edge_fields(draw, max_cells=8):
    xs = sorted(draw(st.lists(edge_coords, min_size=2, max_size=5, unique=True)))
    ys = sorted(draw(st.lists(edge_coords, min_size=2, max_size=5, unique=True)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(xs) - 2), st.integers(0, len(ys) - 2)),
                          max_size=max_cells, unique=True))
    pool = draw(st.lists(field_values, min_size=1, max_size=3))

    def signed(v):
        return -0.0 if v == 0.0 and draw(st.booleans()) else v

    cells = tuple((Rect(*map(signed, (xs[i], ys[j], xs[i + 1], ys[j + 1]))),
                   draw(st.sampled_from(pool))) for i, j in picks)
    return DensityField(Rect(xs[0], ys[0], xs[-1], ys[-1]), draw(st.sampled_from(pool)), cells)


# ---------------------------------------------------------------------------

class TestFieldToJson:
    @given(edge_fields())
    @settings(max_examples=300, deadline=None)
    def test_edge_fields_match_per_number_writer(self, field):
        text = field_to_json(field)
        assert text == field_to_json_per_number(field)
        assert text == dumps_field(field)
        back = field_from_json(text)
        assert back == field
        assert cell_bytes(back) == cell_bytes(field)   # -0.0 included
        assert field_to_json(back) == text

    def test_signed_zeros_are_written_apart(self):
        field = DensityField(Rect(-1.0, -1.0, 1.0, 1.0), 1.0,
                             ((Rect(-0.0, -1.0, 1.0, 0.0), 5e-324),
                              (Rect(-1.0, 0.0, 0.0, 1.0), 5e-324)))
        text = field_to_json(field)
        assert text == field_to_json_per_number(field)
        assert text.count('"-0"') == 1 and text.count('"0"') == 3
        assert text.count('"4.9406564584124654e-324"') == 2
        assert cell_bytes(field_from_json(text)) == cell_bytes(field)

    @given(grid_fields())
    @settings(max_examples=300, deadline=None)
    def test_drawn_fields_match_json_dumps(self, field):
        text = field_to_json(field)
        assert text == dumps_field(field)
        assert field_from_json(text) == field

    @pytest.mark.parametrize("cells", [0, 1])
    @pytest.mark.parametrize("value", SPECIAL)
    def test_no_cell_and_one_cell(self, cells, value):
        one = ((Rect(-0.1, -1e-300, 1.0 / 3.0, 1e300), value),)
        field = DensityField(Rect(-2.5, -1e300, 1e300, 1e300), value, one[:cells])
        text = field_to_json(field)
        assert text == dumps_field(field)
        assert field_from_json(text) == field
        if not cells:
            assert '\n  "cells": [],\n' in text

    @pytest.mark.parametrize("make", REAL)
    def test_real_fields_match_json_dumps(self, make):
        field = make()
        text = field_to_json(field)
        assert text == dumps_field(field)
        assert text == field_to_json_per_number(field)
        assert field_from_json(text) == field


class TestValueAt:
    @given(grid_fields(), st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=25),
           st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_drawn_fields_match_values_at_and_loop(self, field, grid_pts, fractions):
        # points on the grid lines are cell corners, shared edges and the
        # domain's closed right and top edges
        gx, gy = breakpoints(field)
        d = field.domain
        pts = [(gx[min(i, len(gx) - 1)], gy[min(j, len(gy) - 1)]) for i, j in grid_pts]
        pts += [(min(d.x1, d.x0 + u * d.width), min(d.y1, d.y0 + v * d.height))
                for u, v in fractions]
        pts += [(d.x1, d.y1), (d.x1, d.y0), (d.x0, d.y1)]
        got = [field.value_at(x, y) for x, y in pts]
        assert all(type(v) is float for v in got)
        assert got == [loop_value_at(field, x, y) for x, y in pts]
        assert got == field.values_at([x for x, _ in pts], [y for _, y in pts]).tolist()

    @given(grid_fields())
    @settings(max_examples=100, deadline=None)
    def test_outside_the_domain_raises(self, field):
        d = field.domain
        mx, my = d.x0 + (d.x1 - d.x0) / 2, d.y0 + (d.y1 - d.y0) / 2
        for x, y in [(np.nextafter(d.x1, math.inf), my), (np.nextafter(d.x0, -math.inf), my),
                     (mx, np.nextafter(d.y1, math.inf)), (mx, np.nextafter(d.y0, -math.inf)),
                     (math.nan, my), (mx, math.inf)]:
            with pytest.raises(DomainError):
                field.value_at(float(x), float(y))

    def test_no_cells(self):
        field = DensityField(Rect(-1.0, -1.0, 1.0 / 3.0, 2.0), 5e-324)
        for x, y in [(-1.0, -1.0), (1.0 / 3.0, 2.0), (0.0, 0.0)]:
            assert field.value_at(x, y) == 5e-324
            assert type(field.value_at(x, y)) is float
        with pytest.raises(DomainError):
            field.value_at(0.5, 0.0)

    def test_integer_values_come_back_as_floats(self):
        field = DensityField(UNIT_SQUARE, 1, ((Rect(0, 0, 1, 0.5), 3),))
        assert [field.value_at(0.5, 0.25), field.value_at(0.5, 0.5)] == [3.0, 1.0]
        assert [type(field.value_at(0.5, y)) for y in (0.25, 0.5)] == [float, float]


# ---------------------------------------------------------------------------
# build_net on square domains whose origin and side are not dyadic, so that
# scale * x + tx rounds

@st.composite
def square_fields(draw, max_cells=8):
    x0, y0 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    side = draw(st.floats(0.05, 7.0))
    x1, y1 = x0 + side, y0 + side
    if x1 - x0 != y1 - y0:
        y0, y1 = x0, x1   # a plan needs exactly equal width and height
    n = draw(st.integers(1, 12))
    picks = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=max_cells, unique=True))
    gx = [x0 + (x1 - x0) * i / n for i in range(n)] + [x1]
    gy = [y0 + (y1 - y0) * j / n for j in range(n)] + [y1]
    vals = st.floats(0.2, 2.5)
    cells = tuple((Rect(gx[i], gy[j], gx[i + 1], gy[j + 1]), draw(vals)) for i, j in picks)
    return DensityField(Rect(x0, y0, x1, y1), draw(vals), cells)


def assert_net_matches(plan):
    net = build_net(plan)
    pts, tags, counts, integrals = transplant_build_net(plan)
    assert net.points.tobytes() == pts.tobytes()
    assert np.array_equal(net.tags, tags)
    assert [a.tobytes() for a in net.counts] == [a.tobytes() for a in counts]
    assert [a.tobytes() for a in net.integrals] == [a.tobytes() for a in integrals]
    for k, mass in enumerate(net.integrals, start=1):
        assert mass.ravel().tobytes() == np.array(loop_targets(plan, k)).tobytes()


class TestColumnScaledNet:
    @given(square_fields())
    @settings(max_examples=60, deadline=None)
    def test_non_dyadic_square_domains_bitwise(self, field):
        assert_net_matches(make_plan(field, 2))

    @pytest.mark.parametrize("make", REAL)
    def test_real_fields_bitwise(self, make):
        assert_net_matches(make_plan(make(), 3))

    @pytest.mark.parametrize("make", REAL)
    def test_squares_out_of_diagonal_order_bitwise(self, make):
        # the second square lies below and left of the first, so the corners
        # of the first and last squares bound no window holding both
        plan = NetPlan(make(), (ScheduleEntry(Rect(100, 100, 116, 116), 16, 2),
                                ScheduleEntry(Rect(0, 0, 64, 64), 64, 4)))
        assert_net_matches(plan)

    def test_image_of_the_domain_ends_short_of_the_square(self):
        # phi maps the domain onto [0, 15.999999999999998]^2, so the
        # transplanted field's own integrate refused the square's last cell;
        # the loop integral and the column path fill it with the default
        side = 1.37 + 1.93
        field = DensityField(Rect(1.37, 1.37, side, side), 1.3,
                             ((Rect(1.37, 2.0, 3.0, side), 0.7),))
        plan = make_plan(field, 2)
        e = plan.schedule[0]
        scale = e.side / field.domain.width
        rho = reciprocal_transplant(field, Similarity(scale, e.square.x0 - 1.37 * scale,
                                                      e.square.y0 - 1.37 * scale))
        assert rho.domain.x1 < e.square.x1
        with pytest.raises(DomainError):
            rho.integrate(e.square)
        assert_net_matches(plan)

    def test_reciprocal_overflow_rejected(self):
        # 1/v is infinite for a subnormal value; the transplanted field
        # rejected it, and so does the column path
        field = DensityField(UNIT_SQUARE, 1.0, ((Rect(0.0, 0.0, 0.5, 0.5), 1e-310),))
        with pytest.raises(ValueError, match="finite"):
            reciprocal_transplant(field, Similarity(16.0))
        with pytest.raises(ValueError, match="finite"):
            build_net(make_plan(field, 1))
        assert len(build_net(make_plan(field, 0)).points) == 0


class TestHierarchyPatches:
    @pytest.mark.parametrize("L,c,N,M,depth", [
        (2.0, 1.0, 4, 2, 4),
        (2.0, 1.0, 3, 2, 3),
        (2.7, 0.37, 4, 2, 3),
        (1.5, 0.1, 5, 1, 3),
        (3.0, 0.9, 2, 3, 3),
        (2.2, 0.45, 6, 2, 2),
    ])
    def test_fields_equal_the_embedded_patches(self, L, c, N, M, depth):
        consts = toy_constants(L, c, N=N, M=M)
        field, hier = build_hierarchy(L, c, depth, consts)
        want_field, want_hier = embed_build_hierarchy(L, c, depth, consts)
        assert field == want_field
        assert cell_bytes(field) == cell_bytes(want_field)
        assert hier == want_hier

    @given(st.floats(1.5, 3.0), st.floats(0.05, 1.0), st.integers(1, 6), st.integers(1, 4),
           st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_drawn_constants(self, L, c, N, M, depth):
        consts = toy_constants(L, c, N=N, M=M)
        field, hier = build_hierarchy(L, c, depth, consts)
        assert (field, hier) == embed_build_hierarchy(L, c, depth, consts)
