"""DensityField reads and writes its cells through float columns.  The
loop versions of integrate, value_at, replace_region and the centroid
lookup are copied in here as oracles; the column versions must give the
same floats bit for bit and the same cells in the same order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bknet.density as density_mod
from bknet import (
    DensityField,
    Rect,
    Similarity,
    UNIT_SQUARE,
    assemble_limit_density,
    build_hierarchy,
    build_net,
    make_checkerboard,
    make_plan,
    measure_report,
    reciprocal_transplant,
    toy_constants,
    transplant,
)
from bknet.density import _integrate_grid
from bknet.plmap import _centroid_densities
from oracles import contains_point_half_open, replace_region_subtract_all


# ---------------------------------------------------------------------------
# oracles: the per-cell loops the columns replaced

def loop_integrate(field, r):
    total = 0.0
    covered = 0.0
    for cell, v in field.cells:
        part = cell.intersect(r)
        if part is not None:
            total += v * part.area
            covered += part.area
    total += field.default * (r.area - covered)
    return total


def loop_value_at(field, x, y):
    for r, v in field.cells:
        if contains_point_half_open(r, x, y):
            return v
    return field.default


def loop_replace_region(field, regions, new_cells):
    kept = []
    for cell, v in field.cells:
        pieces = [cell]
        for region in regions:
            pieces = [p for piece in pieces for p in piece.subtract(region)]
        kept.extend((piece, v) for piece in pieces)
    kept.extend(new_cells)
    return DensityField(field.domain, field.default, tuple(kept))


def loop_centroid_densities(field, nx, ny):
    dom = field.domain
    dx = dom.width / nx
    dy = dom.height / ny
    rho = []
    for j in range(ny):
        y0 = dom.y0 + dom.height * j / ny
        for i in range(nx):
            x0 = dom.x0 + dom.width * i / nx
            for cx, cy in ((x0 + 2 * dx / 3, y0 + dy / 3), (x0 + dx / 3, y0 + 2 * dy / 3)):
                rho.append(loop_value_at(field, min(cx, dom.x1), min(cy, dom.y1)))
    return np.array(rho)


def loop_targets(plan, k):
    """measure_report's targets as they were computed before the net kept
    them: transplant the reciprocal density and integrate every cell."""
    e = plan.schedule[k - 1]
    dom = plan.density.domain
    scale = e.side / dom.width
    phi = Similarity(scale, e.square.x0 - dom.x0 * scale, e.square.y0 - dom.y0 * scale)
    rho_k = reciprocal_transplant(plan.density, phi)
    cell = e.side / e.m
    return [loop_integrate(rho_k, Rect(e.square.x0 + i * cell, e.square.y0 + j * cell,
                                       e.square.x0 + (i + 1) * cell,
                                       e.square.y0 + (j + 1) * cell))
            for i in range(e.m) for j in range(e.m)]


def bits(x):
    return np.float64(x).tobytes()


def cell_bytes(field):
    return np.array([[r.x0, r.y0, r.x1, r.y1, v] for r, v in field.cells]).tobytes()


# ---------------------------------------------------------------------------
# fields: hypothesis-drawn disjoint dyadic cells, and real hierarchies

DOMAIN = Rect(0.0, 0.0, 2.0, 2.0)

dyadic_rects = st.builds(
    lambda x, y, w, h: Rect(x / 8, y / 8, min(x + w, 16) / 8, min(y + h, 16) / 8),
    st.integers(0, 15), st.integers(0, 15), st.integers(1, 8), st.integers(1, 8))
values = st.floats(0.25, 4.0, allow_nan=False, allow_infinity=False)
# cells at least half the domain wide and regions an eighth or a quarter
wide_rects = st.builds(
    lambda x, y, w, h: Rect(x / 8, y / 8, min(x + w, 16) / 8, min(y + h, 16) / 8),
    st.integers(0, 8), st.integers(0, 8), st.integers(8, 16), st.integers(4, 16))
narrow_rects = st.builds(
    lambda x, y, w, h: Rect(x / 8, y / 8, (x + w) / 8, (y + h) / 8),
    st.integers(0, 14), st.integers(0, 14), st.integers(1, 2), st.integers(1, 2))


def disjoint(rects):
    kept = []
    for r in rects:
        if all(r.intersect(k) is None for k in kept):
            kept.append(r)
    return kept


@st.composite
def fields(draw, max_cells=12):
    rects = disjoint(draw(st.lists(dyadic_rects, max_size=max_cells)))
    vals = draw(st.lists(values, min_size=len(rects), max_size=len(rects)))
    return DensityField(DOMAIN, draw(values), tuple(zip(rects, vals)))


@st.composite
def inner_rects(draw):
    """A rectangle inside DOMAIN, either dyadic or with arbitrary corners."""
    if draw(st.booleans()):
        return draw(dyadic_rects)
    a, b = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2, unique=True)))
    c, d = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2, unique=True)))
    return Rect(a, c, b, d)


def toy_hierarchy(N, depth):
    return build_hierarchy(2.0, 1.0, depth, toy_constants(2.0, 1.0, N=N, M=2))


def limit_density(depth, c=0.7):
    squares = [(Rect(2.0 ** -(k + 1), 2.0 ** -(k + 1), 2.0 ** -k, 2.0 ** -k), k)
               for k in range(1, depth + 1)]
    return assemble_limit_density(c, squares)


REAL = [pytest.param(lambda d=d: toy_hierarchy(4, d)[0], id=f"hierarchy-N4-depth{d}")
        for d in (2, 3, 4)]
REAL += [pytest.param(lambda: toy_hierarchy(3, 3)[0], id="hierarchy-N3-depth3")]
REAL += [pytest.param(lambda d=d: limit_density(d), id=f"limit-depth{d}") for d in (2, 3, 4)]


def probes(field, rng, n=300):
    """Uniform points, cell corners, edge midpoints and points inside cells,
    plus the domain's corners and top and right edges."""
    d = field.domain
    pts = [(d.x0 + u * d.width, d.y0 + v * d.height) for u, v in rng.random((n, 2))]
    pts += [(d.x1, d.y1), (d.x1, d.y0), (d.x0, d.y1), (d.x1, (d.y0 + d.y1) / 2),
            ((d.x0 + d.x1) / 2, d.y1)]
    for r, _ in field.cells[:: max(1, len(field.cells) // 60)]:
        u, v = rng.random(2)
        pts += [(r.x0, r.y0), (r.x1, r.y0), (r.x0, r.y1), (r.x1, r.y1),
                ((r.x0 + r.x1) / 2, r.y1), (r.x1, (r.y0 + r.y1) / 2),
                (r.x0 + u * r.width, r.y0 + v * r.height)]
    return pts


@st.composite
def built_fields(draw):
    """A hierarchy level field or a limit density, with drawn constants."""
    c = draw(st.floats(0.25, 1.0))
    if draw(st.booleans()):
        L = draw(st.floats(1.5, 3.0))
        N, M, depth = draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return build_hierarchy(L, c, depth, toy_constants(L, c, N=N, M=M))[0]
    return limit_density(draw(st.integers(1, 4)), c)


@st.composite
def grid_edges(draw, field, axis):
    """m + 1 nondecreasing edges, m in 1..16, on one axis of the field: a
    uniform grid between two drawn ends, or sorted drawn edges.  Edges are
    drawn up to half the domain's span outside it, or as the cells' and
    the domain's edges, so grids reach past the cells, cells lie wholly
    outside them, and grid lines fall on cell edges."""
    lo, hi = (field.domain.x0, field.domain.x1) if axis == 0 else (field.domain.y0, field.domain.y1)
    box = field._columns[0]
    on_edges = np.unique(np.concatenate([box[:, [axis, axis + 2]].ravel(), [lo, hi]])).tolist()
    edge = st.one_of(st.floats(lo - (hi - lo) / 2, hi + (hi - lo) / 2), st.sampled_from(on_edges))
    m = draw(st.integers(1, 16))
    if draw(st.booleans()):
        a, b = sorted(draw(st.lists(edge, min_size=2, max_size=2, unique=True)))
        return a + (b - a) * np.arange(m + 1) / m
    return np.sort(draw(st.lists(edge, min_size=m + 1, max_size=m + 1)))


# ---------------------------------------------------------------------------

class TestIntegrate:
    @given(fields(), st.lists(inner_rects(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_random_fields_bitwise(self, field, rects):
        for r in rects + [field.domain]:
            assert bits(field.integrate(r)) == bits(loop_integrate(field, r))

    @pytest.mark.parametrize("make", REAL)
    def test_real_fields_bitwise(self, make):
        field = make()
        rng = np.random.default_rng(len(field.cells))
        d = field.domain
        rects = [field.domain] + [r for r, _ in field.cells[::7]]
        for a, b, c, e in rng.random((120, 4)):
            x0, x1 = sorted((d.x0 + a * d.width, d.x0 + b * d.width))
            y0, y1 = sorted((d.y0 + c * d.height, d.y0 + e * d.height))
            if x0 < x1 and y0 < y1:
                rects.append(Rect(x0, y0, x1, y1))
        for r in rects:
            assert bits(field.integrate(r)) == bits(loop_integrate(field, r))

    def test_edge_contact_is_skipped(self):
        # the rectangle touches the 3.0 cell only along x = 1; the 5.0 cell
        # only at the corner (1, 1)
        field = DensityField(DOMAIN, 1.5, ((Rect(1.0, 0.0, 2.0, 0.5), 3.0),
                                           (Rect(1.0, 1.0, 1.5, 1.5), 5.0)))
        r = Rect(0.25, 0.0, 1.0, 1.0)
        assert field.integrate(r) == loop_integrate(field, r) == 1.5 * r.area

    def test_no_cells(self):
        field = DensityField(DOMAIN, 1.0 / 3)
        r = Rect(0.1, 0.3, 1.7, 1.9)
        assert bits(field.integrate(r)) == bits(loop_integrate(field, r))

    def test_order_matters_and_is_kept(self):
        # with these values a pairwise sum and a left-to-right sum differ
        cells = tuple((Rect(i / 8, 0.0, (i + 1) / 8, 1.0), 1.0 + (i % 7) / 3) for i in range(16))
        field = DensityField(DOMAIN, 0.1, cells)
        r = Rect(0.01, 0.01, 1.99, 0.99)
        want = loop_integrate(field, r)
        assert bits(field.integrate(r)) == bits(want)


class TestIntegrateGrid:
    """build_net's integrals come from the cells' overlaps with the grid;
    they must be the cell-order loop's floats for every grid cell."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_built_fields_match_loop(self, data):
        field = data.draw(built_fields())
        xs, ys = data.draw(grid_edges(field, 0)), data.draw(grid_edges(field, 1))
        box, val = field._columns
        got = _integrate_grid(box, val, field.default, xs, ys)
        assert got.shape == (len(xs) - 1, len(ys) - 1) and got.dtype == np.float64
        for (i, j), v in np.ndenumerate(got):
            if xs[i] < xs[i + 1] and ys[j] < ys[j + 1]:
                r = Rect(xs[i], ys[j], xs[i + 1], ys[j + 1])
                assert bits(v) == bits(loop_integrate(field, r))
            else:
                # a zero-width grid cell has no area and meets no cell
                assert bits(v) == bits(0.0)

    def test_touching_grid_lines_add_nothing(self):
        # the grid's line x = 1 is the 3.0 cell's left edge, and y = 1 the
        # 5.0 cell's bottom edge; the last column and row lie past the domain
        field = DensityField(DOMAIN, 1.5, ((Rect(1.0, 0.0, 2.0, 0.5), 3.0),
                                           (Rect(1.0, 1.0, 1.5, 1.5), 5.0)))
        xs, ys = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0, 2.5])
        got = _integrate_grid(*field._columns, field.default, xs, ys)
        want = [[loop_integrate(field, Rect(xs[i], ys[j], xs[i + 1], ys[j + 1]))
                 for j in range(3)] for i in range(3)]
        assert got.tobytes() == np.array(want).tobytes()
        assert got[0].tolist() == [1.5, 1.5, 0.75]
        assert got[2].tolist() == [1.5, 1.5, 0.75]

    def test_no_cells_and_cells_outside(self):
        xs, ys = np.array([0.25, 0.5, 1.25]), np.array([0.0, 0.75])
        empty = DensityField(DOMAIN, 1.0 / 3)
        far = DensityField(DOMAIN, 1.0 / 3, ((Rect(1.5, 1.5, 2.0, 2.0), 7.0),))
        for field in (empty, far):
            got = _integrate_grid(*field._columns, field.default, xs, ys)
            want = [loop_integrate(field, Rect(xs[i], 0.0, xs[i + 1], 0.75)) for i in range(2)]
            assert got.tobytes() == np.array(want)[:, None].tobytes()


class TestValuesAt:
    @given(fields(), st.lists(st.tuples(st.integers(0, 32), st.integers(0, 32)), max_size=30),
           st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_random_fields_match_loop(self, field, grid_pts, free_pts):
        # points on the 1/16 grid sit on cell edges and corners, and on the
        # domain's top and right edges
        pts = [(i / 16, j / 16) for i, j in grid_pts] + free_pts
        want = [loop_value_at(field, x, y) for x, y in pts]
        assert [field.value_at(x, y) for x, y in pts] == want
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        got = field.values_at(xs, ys)
        assert got.dtype == np.float64 and got.shape == xs.shape
        assert got.tolist() == want

    @pytest.mark.parametrize("make", REAL)
    def test_real_fields_match_loop(self, make):
        field = make()
        pts = probes(field, np.random.default_rng(7))
        want = [loop_value_at(field, x, y) for x, y in pts]
        assert [field.value_at(x, y) for x, y in pts] == want
        assert field.values_at([x for x, _ in pts], [y for _, y in pts]).tolist() == want

    def test_edges_are_half_open(self):
        field = DensityField(UNIT_SQUARE, 1.0, ((Rect(0.0, 0.0, 0.5, 0.5), 2.0),
                                                (Rect(0.5, 0.0, 1.0, 1.0), 3.0)))
        assert field.value_at(0.5, 0.25) == 3.0       # left edge of the 3.0 cell
        assert field.value_at(0.25, 0.5) == 1.0       # top edge of the 2.0 cell
        assert field.value_at(1.0, 0.5) == 1.0        # domain's right edge
        assert field.value_at(0.75, 1.0) == 1.0       # domain's top edge
        assert field.value_at(1.0, 1.0) == 1.0
        assert field.values_at([0.5, 0.25, 1.0, 0.75], [0.25, 0.5, 0.5, 1.0]).tolist() == \
            [3.0, 1.0, 1.0, 1.0]

    def test_no_cells(self):
        field = DensityField(UNIT_SQUARE, 1.25)
        assert field.value_at(0.5, 0.5) == 1.25
        assert field.values_at([0.0, 1.0], [1.0, 0.0]).tolist() == [1.25, 1.25]
        assert field.values_at([], []).shape == (0,)

    def test_shape_is_kept_and_mismatch_rejected(self):
        field = make_checkerboard(4, 1.0)
        xs = np.array([[0.1, 0.3], [0.6, 0.9]])
        got = field.values_at(xs, np.full((2, 2), 0.1))
        assert got.shape == (2, 2) and got.tolist() == [[1.0, 2.0], [1.0, 2.0]]
        with pytest.raises(ValueError, match="shape"):
            field.values_at([0.1, 0.2], [0.1])

    def test_values_at_on_a_depth3_hierarchy(self):
        field = toy_hierarchy(4, 3)[0]
        pts = probes(field, np.random.default_rng(3))
        want = [loop_value_at(field, x, y) for x, y in pts]
        assert field.values_at([x for x, _ in pts], [y for _, y in pts]).tolist() == want

    @pytest.mark.parametrize("make", [lambda: make_checkerboard(4, 1.0),
                                      lambda: make_checkerboard(8, 0.5),
                                      lambda: toy_hierarchy(4, 3)[0],
                                      lambda: limit_density(3)])
    @pytest.mark.parametrize("nx,ny", [(4, 2), (8, 4), (16, 8), (12, 5), (1, 1)])
    def test_centroid_densities_match_loop(self, make, nx, ny):
        field = make()
        got = _centroid_densities(field, nx, ny)
        want = loop_centroid_densities(field, nx, ny)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestReplaceRegion:
    @given(fields(), st.lists(dyadic_rects, max_size=8),
           st.lists(st.integers(1, 3), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_random_fields_match_loop(self, field, region_draws, splits):
        regions = disjoint(region_draws)
        new_cells = [(Rect(U.x0 + s * U.width / k, U.y0, U.x0 + (s + 1) * U.width / k,
                           U.y0 + U.height / 2), 2.0 + s)
                     for U, k in zip(regions, splits) for s in range(k)]
        got = field.replace_region(regions, new_cells)
        want = loop_replace_region(field, regions, new_cells)
        assert cell_bytes(got) == cell_bytes(want)
        assert got == want

    @given(st.lists(wide_rects, min_size=1, max_size=4), st.lists(narrow_rects, max_size=16),
           st.lists(inner_rects(), max_size=3), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_split_cells_match_subtract_all(self, cell_draws, narrow, other, shuffle):
        # several regions per wide cell, so later regions meet only some of
        # the pieces the earlier ones left; arbitrary corners now and then
        cells = disjoint(cell_draws)
        field = DensityField(DOMAIN, 1.0, tuple((r, 1.0 + n) for n, r in enumerate(cells)))
        regions = disjoint(narrow + other)
        if shuffle:
            regions.reverse()
        new_cells = [(r, 0.5) for r in regions]
        got = field.replace_region(regions, new_cells)
        want = replace_region_subtract_all(field, regions, new_cells)
        assert cell_bytes(got) == cell_bytes(want)
        assert got == want

    def test_region_meeting_one_piece_of_a_split_cell(self):
        field = DensityField(DOMAIN, 1.0, ((Rect(0.0, 0.0, 2.0, 2.0), 3.0),))
        # the first region cuts the cell into four; the second meets only
        # the top strip, the third only the right piece
        regions = [Rect(0.5, 0.5, 1.0, 1.0), Rect(1.5, 1.5, 2.0, 2.0), Rect(1.5, 0.5, 2.0, 0.75)]
        got = field.replace_region(regions, [])
        assert got == replace_region_subtract_all(field, regions, [])
        assert [r for r, _ in got.cells] == [
            Rect(0.0, 0.0, 2.0, 0.5),
            Rect(0.0, 1.0, 2.0, 1.5),
            Rect(0.0, 1.5, 1.5, 2.0),
            Rect(0.0, 0.5, 0.5, 1.0),
            Rect(1.0, 0.75, 2.0, 1.0),
            Rect(1.0, 0.5, 1.5, 0.75),
        ]

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunked_candidates_match_loop(self, monkeypatch, chunk):
        field = toy_hierarchy(4, 3)[0]
        regions = [Rect(i / 8 + 1 / 32, j / 8, i / 8 + 3 / 32, j / 8 + 1 / 64)
                   for i in range(8) for j in range(0, 8, 3)] + [Rect(0.0, 0.0, 1.0, 1 / 256)]
        regions = disjoint(regions)
        want = loop_replace_region(field, regions, [])
        monkeypatch.setattr(density_mod, "_PAIR_CHUNK", chunk)
        assert cell_bytes(field.replace_region(regions, [])) == cell_bytes(want)

    def test_wide_region_before_a_narrow_one(self):
        # sorted by x0 the regions' x1 fall (2.0, then 1.0); the cell lies
        # right of the narrow region and inside the wide one
        field = DensityField(DOMAIN, 1.0, ((Rect(1.5, 0.0, 2.0, 0.25), 2.0),
                                           (Rect(0.0, 1.0, 0.25, 2.0), 3.0)))
        regions = [Rect(0.5, 1.0, 1.0, 2.0), Rect(0.0, 0.0, 2.0, 0.5)]
        got = field.replace_region(regions, [])
        assert got == loop_replace_region(field, regions, [])
        assert got.cells == ((Rect(0.0, 1.0, 0.25, 2.0), 3.0),)

    def test_no_cells_and_no_regions(self):
        empty = DensityField(UNIT_SQUARE, 1.0)
        new = [(Rect(0.0, 0.0, 0.5, 0.5), 2.0)]
        assert empty.replace_region([Rect(0.0, 0.0, 1.0, 1.0)], new).cells == tuple(new)
        field = make_checkerboard(4, 1.0)
        assert field.replace_region([], []) == field

    def test_toy_depth5_cell_count(self):
        # a scale guard: depth 5 writes 5,104 cells, which the former
        # all-regions-on-every-cell write took seconds to produce
        field, _ = toy_hierarchy(4, 5)
        assert len(field.cells) == 5104


class TestLimitDensity:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_cells_are_the_transplanted_hierarchy_cells(self, depth):
        squares = [(Rect(2.0 ** -(k + 1), 2.0 ** -(k + 1), 2.0 ** -k, 2.0 ** -k), k)
                   for k in range(1, depth + 1)]
        want = []
        for r, k in squares:
            ck = min(0.7, 1.0 / k)
            hfield, _ = build_hierarchy(float(k + 1), ck, k, toy_constants(L=float(k + 1), c=ck))
            want.extend(transplant(hfield, Similarity(scale=r.width, tx=r.x0, ty=r.y0)).cells)
        field = assemble_limit_density(0.7, squares)
        assert field == DensityField(UNIT_SQUARE, 1.0, tuple(want))
        assert cell_bytes(field) == np.array([[r.x0, r.y0, r.x1, r.y1, v]
                                              for r, v in want]).tobytes()


class TestMeasureReport:
    @pytest.mark.parametrize("make", REAL)
    def test_targets_equal_reintegrated(self, make):
        plan = make_plan(make(), 3)
        net = build_net(plan)
        for k in range(1, len(plan.schedule) + 1):
            rows = measure_report(net, plan, k)
            assert [bits(r["target"]) for r in rows] == [bits(t) for t in loop_targets(plan, k)]
            for r in rows:
                assert type(r["target"]) is float
                assert r["error"] == abs(r["count"] - r["target"])
                assert abs(r["count"] - r["target"]) <= 2 * math.sqrt(r["target"]) + 1

    def test_integrals_kept_per_square(self):
        plan = make_plan(limit_density(2), 3)
        net = build_net(plan)
        assert [a.shape for a in net.integrals] == [(e.m, e.m) for e in plan.schedule]
        assert [a.dtype for a in net.integrals] == [np.float64] * 3

    def test_foreign_plan_rejected(self):
        field = limit_density(2)
        plan = make_plan(field, 2)
        net = build_net(plan)
        other = make_plan(field, 2)
        assert other == plan and other is not plan
        with pytest.raises(ValueError, match="net.plan"):
            measure_report(net, other, 1)
        with pytest.raises(ValueError, match="net.plan"):
            measure_report(net, make_plan(field, 3), 1)
