"""Acceptance suite: ten independent end-to-end properties, one test each.

Every test checks a single headline guarantee at its stated tolerance and
uses an oracle that does not share code with the implementation under test
(exhaustive scans, Monte Carlo sampling, permutation enumeration, shoelace
areas).
"""

import math
import time
from itertools import permutations

import numpy as np
import pytest

from bknet import (
    DensityField,
    Rect,
    UNIT_SQUARE,
    build_hierarchy,
    build_net,
    check_covering,
    check_separation,
    constant_field,
    evaluate_stretch,
    feasibility_report,
    greedy_distortion,
    identity_map,
    make_checkerboard,
    make_plan,
    marked_grid,
    measure_report,
    pair_distortion,
    pl_metrics,
    schedule_constants,
    search_min_stretch,
    toy_constants,
)
from bknet.plmap import PLMap
from oracles import cell_image_areas_shoelace

TWO_TONE = DensityField(UNIT_SQUARE, 1.0, ((Rect(0.5, 0.0, 1.0, 1.0), 2.0),))


def test_criterion_01_net_invariants():
    """c=1, K=3 net: separation >= 0.5 and covering <= 2.5 on a window
    spanning the first two squares with margin 2, in under 30 s, with the
    separation cross-checked against an exhaustive pairwise scan."""
    t0 = time.time()
    plan = make_plan(TWO_TONE, 3)
    net = build_net(plan)
    hi = plan.schedule[1].square.x1  # window covers squares 1 and 2
    window = Rect(-2.0, -2.0, hi + 2.0, hi + 2.0)

    sep = check_separation(net, window)
    assert sep >= 0.5

    # oracle: brute-force min distance over every pair with an endpoint
    # inside the window (candidates inflated by the same safety radius)
    radius = 2.0 * max(1.0, net.max_cell_spacing)
    big = Rect(window.x0 - radius, window.y0 - radius,
               window.x1 + radius, window.y1 + radius)
    pts, _ = net.points_in_window(big)
    inside = ((pts[:, 0] >= window.x0) & (pts[:, 0] <= window.x1)
              & (pts[:, 1] >= window.y0) & (pts[:, 1] <= window.y1))
    best = np.inf
    idx = np.flatnonzero(inside)
    for i in idx:
        d = np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1])
        d[i] = np.inf
        best = min(best, float(d.min()))
    assert sep == pytest.approx(best, abs=0.0)

    cov = check_covering(net, window)
    assert cov <= 2.5
    assert time.time() - t0 < 30.0


def test_criterion_02_measure_convergence():
    """Per-cell |count - target| <= 2 sqrt(target) + 1 at every k, and the
    relative bound 2/sqrt(target) + 1/target shrinks along k = 1..3."""
    plan = make_plan(TWO_TONE, 3)
    net = build_net(plan)
    rel_bounds = []
    for k in (1, 2, 3):
        rows = measure_report(net, plan, k)
        for row in rows:
            assert row["error"] <= 2 * math.sqrt(row["target"]) + 1
        t = min(row["target"] for row in rows)
        rel_bounds.append(2 / math.sqrt(t) + 1 / t)
    assert rel_bounds[0] > rel_bounds[1] > rel_bounds[2]


def test_criterion_03_integration_oracle():
    """integrate matches a 10^6-sample Monte Carlo oracle to 1e-3 on 50
    random rectangles over checkerboards; the exact two-cell integral is
    0.75 to 1e-15."""
    rng = np.random.default_rng(2024)
    cases = [(N, c) for N in (2, 4, 8) for c in (0.5, 1.0)]
    for trial in range(50):
        N, c = cases[trial % len(cases)]
        field = make_checkerboard(N, c)
        x = np.sort(rng.uniform(0.0, 1.0, 2))
        y = np.sort(rng.uniform(0.0, 1.0 / N, 2))
        if x[1] - x[0] < 1e-3 or y[1] - y[0] < 1e-4:
            continue
        rect = Rect(x[0], y[0], x[1], y[1])
        got = field.integrate(rect)
        xs = rng.uniform(rect.x0, rect.x1, 1_000_000)
        vals = np.where(np.floor(N * xs) % 2 == 0, 1.0, 1.0 + c)
        mc = vals.mean() * rect.area
        assert abs(got - mc) < 1e-3

    two_cell = make_checkerboard(2, 1.0)
    assert abs(two_cell.integrate(two_cell.domain) - 0.75) < 1e-15


def test_criterion_04_certificate_feasibility():
    """schedule_constants certifies all four inequalities with >= 5%
    margin for three (L, c) pairs, under 1 s per pair."""
    for L, c in ((1.1, 0.01), (2.0, 0.1), (5.0, 1.0)):
        t0 = time.time()
        rep = feasibility_report(schedule_constants(L, c))
        for key in ("claim1", "claim2", "claim3", "epsilon_caps"):
            assert rep[key]["pass"], (L, c, key)
            assert rep[key]["margin"] >= 0.05, (L, c, key)
        assert time.time() - t0 < 1.0


def test_criterion_05_deviation_bound_property():
    """10^5 random admissible vectors all obey the deviation bound
    N |W - W'| <= 2 A sqrt(l^2 + l), with zero violations."""
    rng = np.random.default_rng(11)
    A, N, l = 0.8, 16, 0.05
    k = l / 2
    n = 100_000
    X = rng.uniform((1 - l) * A / N, (1 + k) * A / N, n)
    cap = (1 + k) ** 2 * A ** 2 / N ** 2
    ymax = np.sqrt(np.maximum(cap - X ** 2, 0.0))
    Y = rng.uniform(-1.0, 1.0, n) * ymax
    dev = N * np.hypot(X - A / N, Y)
    violations = int((dev > 2 * A * math.sqrt(l * l + l)).sum())
    assert violations == 0


def test_criterion_06_stretch_detection():
    """A half-grid-step perturbation at one marked vertex is flagged with
    ratio exactly 1.5 (to 1e-12); the identity flags nothing."""
    N, M = 4, 2
    consts = toy_constants(2.0, 1.0, N=N, M=M)
    g = marked_grid(N, M)
    NM = N * M
    target = (3 / NM, 1 / NM)
    delta = 1.0 / (2 * NM)

    def f(p):
        return (p[0] + delta, p[1]) if p == target else p

    rep = evaluate_stretch(f, g, consts)
    assert rep.any_flagged
    assert rep.flagged_pair == ((2 / NM, 1 / NM), (3 / NM, 1 / NM))
    assert rep.flagged_ratio == pytest.approx(1.5, abs=1e-12)

    clean = evaluate_stretch(lambda p: p, g, consts)
    assert not clean.any_flagged


def test_criterion_07_distortion_oracle_dominance():
    """greedy >= exact on 100 random 6-point instances with equality on at
    least 30%; exact distortion is similarity-invariant to 1e-12; total
    runtime under 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(77)
    equal = 0
    for _ in range(100):
        X = rng.uniform(0, 10, (6, 2))
        Y = rng.uniform(0, 10, (6, 2))
        exact = pair_distortion(X, Y).distortion
        greedy = greedy_distortion(X, Y, restarts=8, seed=0).distortion
        assert greedy >= exact - 1e-9
        if greedy <= exact + 1e-9:
            equal += 1
    assert equal >= 30

    X = rng.uniform(0, 10, (5, 2))
    Y = rng.uniform(0, 10, (5, 2))
    base = pair_distortion(X, Y).distortion
    moved = pair_distortion(X, 3.7 * Y + np.array([2.0, -5.0])).distortion
    assert moved == pytest.approx(base, rel=1e-12)
    assert time.time() - t0 < 60.0


def test_criterion_08_pl_metrics():
    """Identity map is exact (det = 1, Lip = Lip_inv = 1); cell image areas
    agree with an independent shoelace oracle to 1e-12 on 20 random maps."""
    m = identity_map(UNIT_SQUARE, 8, 8)   # power-of-two grid: exact floats
    met = pl_metrics(m, constant_field(1.0))
    assert (met.dets == 1.0).all()
    assert met.lip == 1.0
    assert met.lip_inv == 1.0

    rng = np.random.default_rng(21)
    for _ in range(20):
        base = identity_map(UNIT_SQUARE, 5, 4)
        verts = base.vertices + 0.04 * rng.standard_normal(base.vertices.shape)
        wob = PLMap(UNIT_SQUARE, 5, 4, verts)
        met = pl_metrics(wob, constant_field(1.0))
        diff = np.abs(met.cell_image_areas - cell_image_areas_shoelace(wob))
        assert diff.max() < 1e-12


def test_criterion_09_experiment_determinism():
    """search_min_stretch (N=4, M=2, c=1, L=2, seed=42, budget=10^4) is
    bitwise identical across two runs and has a non-increasing trace."""
    field = make_checkerboard(4, 1.0)
    consts = toy_constants(2.0, 1.0, N=4, M=2)
    a = search_min_stretch(field, consts, 10_000, seed=42)
    b = search_min_stretch(field, consts, 10_000, seed=42)
    assert a.trace == b.trace
    assert a.objective == b.objective
    assert np.array_equal(a.plmap.vertices, b.plmap.vertices)
    trace = np.array(a.trace)
    assert (np.diff(trace) <= 0).all()


def test_criterion_10_hierarchy_budget():
    """Depth-3 hierarchy with toy constants: total neighborhood area at
    each level stays below half the previous level's epsilon."""
    consts = toy_constants(2.0, 1.0, N=4, M=2)
    _, h = build_hierarchy(2.0, 1.0, 3, consts)
    assert len(h.levels) == 4   # level 0 plus three refinement levels
    for i in range(1, len(h.levels)):
        area = sum(r.area for r in h.levels[i].neighborhoods)
        assert area < h.levels[i - 1].epsilon / 2
    h.validate()   # disjointness plus the same budget, via the library
