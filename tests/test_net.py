import numpy as np
import pytest

from bknet import (
    DensityField,
    Rect,
    UNIT_SQUARE,
    build_net,
    check_covering,
    check_separation,
    constant_field,
    make_checkerboard,
    make_plan,
    measure_report,
    net_from_csv,
    net_to_csv,
)
from bknet.netbuild import NetPlan, ScheduleEntry
from bknet.svgplot import net_svg


def brute_force_min_distance(pts):
    n = len(pts)
    best = np.inf
    for i in range(n):
        d = np.hypot(*(pts[i + 1:] - pts[i]).T)
        if len(d):
            best = min(best, d.min())
    return best


TWO_TONE = DensityField(UNIT_SQUARE, 1.0, ((Rect(0.5, 0.0, 1.0, 1.0), 2.0),))


class TestMakePlan:
    def test_schedule_satisfies_ratio_bound(self):
        plan = make_plan(TWO_TONE, 1)   # c = 1
        e = plan.schedule[0]
        assert e.side >= 4 and e.m == 2
        assert e.side / e.m >= 2 * (1 + 1)

    def test_ratio_strictly_decreasing(self):
        plan = make_plan(TWO_TONE, 3)
        ratios = [e.m / e.side for e in plan.schedule]
        assert ratios == sorted(ratios, reverse=True)
        assert len(set(ratios)) == 3

    def test_k0_empty_schedule(self):
        plan = make_plan(constant_field(1.0), 0)
        net = build_net(plan)
        assert len(net.points) == 0
        pts, tags = net.points_in_window(Rect(0, 0, 4, 4))
        assert (tags == 0).all()
        assert len(pts) == 16

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            NetPlan(TWO_TONE, (ScheduleEntry(Rect(0, 0, 4, 4), 4, 2),))

    @pytest.mark.parametrize("entry", [ScheduleEntry(Rect(0, 0, 4, 4), 8, 2),
                                       ScheduleEntry(Rect(0, 0, 4, 8), 4, 2)],
                             ids=["smaller-than-side", "not-square"])
    def test_square_must_be_side_by_side(self, entry):
        # filling a 4 x 4 square as side 8 puts points on background
        # centers (separation 0); filling only 4 x 4 of a 4 x 8 square
        # leaves a hole in the net
        with pytest.raises(ValueError, match=r"schedule entry 0: Rect\(.*\) is not \d x \d$"):
            NetPlan(constant_field(1.0), (entry,))

    def test_entry_with_a_possibly_empty_cell_rejected(self):
        # l/m = 0.25 clears 2(1+c) = 0.2 for a density of 0.1, but a cell's
        # reciprocal mass 0.0625 / 0.1 holds no point; build_net used to
        # fail on it with "empty cell in square 1"
        plan = (ScheduleEntry(Rect(0, 0, 1, 1), 1, 4),)
        with pytest.raises(ValueError, match=r"schedule entry 0: smallest cell mass .* 0\.625 below"):
            NetPlan(constant_field(0.1), plan)
        # make_plan's l/m >= max(2, 2 * max value) always passes the rule
        for value in (0.1, 0.3, 1.0, 5.0):
            assert build_net(make_plan(constant_field(value), 2)).counts[0].min() >= 1

    def test_non_square_domain_rejected(self):
        # the checkerboard lives on [0,1] x [0,1/N]; a square cannot be
        # filled from it by one similarity
        with pytest.raises(ValueError, match=r"square density domain.*y1=0\.25"):
            make_plan(make_checkerboard(4, 1.0), 1)
        with pytest.raises(ValueError, match="square density domain"):
            NetPlan(constant_field(1.0, Rect(0, 0, 2, 1)), ())


class TestBuildNet:
    def test_unit_density_reproduces_lattice(self):
        f = constant_field(1.0)
        plan = NetPlan(f, (ScheduleEntry(Rect(0, 0, 16, 16), 16, 4),))
        net = build_net(plan)
        # n = 4 per cell of side 4: unit-grid centers
        assert (net.counts[0] == 4).all()
        xs = np.sort(np.unique(net.points[:, 0]))
        assert np.allclose(xs, np.arange(16) + 0.5)

    def test_constant_high_density_spacing(self):
        f = constant_field(4.0)   # c = 3, reciprocal density 1/4
        plan = make_plan(f, 1)
        net = build_net(plan)
        e = plan.schedule[0]
        cell = e.side / e.m
        # integral per cell = cell^2/4, n = cell/2, spacing 2
        assert (net.counts[0] == cell // 2).all()
        # interior window far enough from the square boundary that no
        # background pair interferes
        inner = Rect(2.5, 2.5, e.side - 2.5, e.side - 2.5)
        assert check_separation(net, inner) == pytest.approx(2.0)
        # a window hugging the boundary sees square-vs-background pairs
        full = Rect(0.0, 0.0, e.side, e.side)
        assert check_separation(net, full) < 2.0

    def test_checkerboard_counts_match_monte_carlo_oracle(self):
        cb = make_checkerboard(4, 1.0)
        density = DensityField(UNIT_SQUARE, 1.0, cb.cells)
        plan = make_plan(density, 1)
        net = build_net(plan)
        e = plan.schedule[0]
        m = e.m
        cell = e.side / e.m
        rng = np.random.default_rng(3)
        for i in range(m):
            for j in range(m):
                xs = rng.uniform(i * cell, (i + 1) * cell, 200_000)
                ys = rng.uniform(j * cell, (j + 1) * cell, 200_000)
                # reciprocal transplanted density sampled from the formula
                u = xs / e.side
                v = ys / e.side
                vals = np.where(v < 0.25,
                                np.where(np.floor(4 * u) % 2 == 0, 1.0, 0.5),
                                1.0)
                target_mc = vals.mean() * cell * cell
                n_oracle = int(np.floor(np.sqrt(target_mc)))
                assert abs(net.counts[0][i, j] - n_oracle) <= 1

    def test_point_count_is_sum_of_squares(self):
        plan = make_plan(TWO_TONE, 2)
        net = build_net(plan)
        for k, n_arr in enumerate(net.counts, start=1):
            assert (net.tags == k).sum() == (n_arr.astype(object) ** 2).sum()

    def test_determinism(self):
        plan = make_plan(TWO_TONE, 2)
        a = build_net(plan)
        b = build_net(plan)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.tags, b.tags)


class TestSeparation:
    def test_pure_lattice(self):
        net = build_net(make_plan(constant_field(1.0), 0))
        assert check_separation(net, Rect(0, 0, 8, 8)) == 1.0

    def test_matches_exhaustive_scan(self):
        plan = make_plan(TWO_TONE, 1)
        net = build_net(plan)
        w = Rect(-2, -2, 20, 20)
        got = check_separation(net, w)
        pts, _ = net.points_in_window(Rect(-6, -6, 24, 24))
        assert got == pytest.approx(brute_force_min_distance(pts))

    def test_single_point_window_rejected(self):
        net = build_net(make_plan(constant_field(1.0), 0))
        with pytest.raises(ValueError):
            check_separation(net, Rect(0.4, 0.4, 0.6, 0.6))

    def test_positivity_and_interior_bound(self):
        plan = make_plan(TWO_TONE, 2)
        net = build_net(plan)
        sep = check_separation(net, Rect(-2, -2, 40, 40))
        assert sep > 0
        for e, n_arr in zip(plan.schedule, net.counts):
            cell = e.side / e.m
            # reciprocal density <= 1 forces n <= cell side
            assert (n_arr <= cell).all()
            assert sep >= min(1.0, (cell / n_arr).min()) / 2


class TestCovering:
    def test_pure_lattice(self):
        net = build_net(make_plan(constant_field(1.0), 0))
        got = check_covering(net, Rect(0, 0, 8, 8))
        assert got == pytest.approx(np.sqrt(2) / 2, abs=1.5 * np.sqrt(2) / 2 / 64)

    def test_spacing_two_region(self):
        f = constant_field(4.0)
        plan = make_plan(f, 1)
        net = build_net(plan)
        e = plan.schedule[0]
        inner = Rect(1.0, 1.0, e.side - 1.0, e.side - 1.0)
        got = check_covering(net, inner)
        assert got == pytest.approx(np.sqrt(2), abs=2 / 64)

    def test_window_outside_squares(self):
        plan = make_plan(TWO_TONE, 1)
        net = build_net(plan)
        got = check_covering(net, Rect(30, 30, 38, 38))
        assert got == pytest.approx(np.sqrt(2) / 2, abs=1.5 * np.sqrt(2) / 2 / 64)

    def test_bounded_by_max_cell_side(self):
        plan = make_plan(TWO_TONE, 2)
        net = build_net(plan)
        got = check_covering(net, Rect(0, 0, 20, 20))
        assert got <= np.sqrt(2) / 2 * net.max_cell_spacing + 0.05


class TestMeasureReport:
    def test_unit_density_zero_error(self):
        f = constant_field(1.0)
        plan = NetPlan(f, (ScheduleEntry(Rect(0, 0, 16, 16), 16, 4),))
        net = build_net(plan)
        for row in measure_report(net, plan, 1):
            assert row["error"] == 0.0

    def test_constant_quarter_density_exact(self):
        f = constant_field(4.0)
        plan = make_plan(f, 1)   # side 16, m 2: cell side 8, target 16
        net = build_net(plan)
        for row in measure_report(net, plan, 1):
            assert row["target"] == pytest.approx(16.0)
            assert row["count"] == 16
            assert row["error"] == pytest.approx(0.0)

    def test_floor_bound_everywhere(self):
        plan = make_plan(TWO_TONE, 3)
        net = build_net(plan)
        for k in range(1, 4):
            for row in measure_report(net, plan, k):
                assert row["error"] <= 2 * np.sqrt(row["target"]) + 1

    def test_relative_bound_decreases_along_schedule(self):
        plan = make_plan(TWO_TONE, 3)
        net = build_net(plan)
        bounds = []
        for k in range(1, 4):
            t = min(row["target"] for row in measure_report(net, plan, k))
            bounds.append(2 / np.sqrt(t) + 1 / t)
        assert bounds[0] > bounds[1] > bounds[2]

    def test_k_out_of_range(self):
        plan = make_plan(TWO_TONE, 1)
        net = build_net(plan)
        with pytest.raises(ValueError):
            measure_report(net, plan, 2)


class TestCsv:
    def test_round_trip(self):
        plan = make_plan(TWO_TONE, 1)
        net = build_net(plan)
        pts, tags = net.points_in_window(Rect(-2, -2, 20, 20))
        text = net_to_csv(pts, tags)
        p2, t2 = net_from_csv(text)
        assert np.array_equal(pts, p2)
        assert np.array_equal(tags, t2)

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_non_finite_rows_parse_and_net_svg_refuses_them(self, coord):
        pts, tags = net_from_csv(f"x,y,tag\n0.0,0.0,1\n1.0,{coord},background\n")
        assert pts.shape == (2, 2) and not np.isfinite(pts[1, 1])
        with pytest.raises(ValueError, match="point 1 has a non-finite coordinate"):
            net_svg(pts, tags)
