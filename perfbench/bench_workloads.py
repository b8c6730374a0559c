"""The three benchmark workloads, driven through bknet's public functions.

Each workload has
  setup(seed)              shared inputs, built once per process (timed as set-up);
  items(seed)              endless, deterministic stream of item parameters;
  run(state, item)         the timed part: library calls only;
  check(state, item, out)  correctness failures (untimed), as a list of messages;
  digest(out)              a string that changes when any output changes.

Library functions are always reached through their module (``netbuild.
build_net``, not a bound name), so wrappers installed by the traced run
see every call.  Item kinds are drawn in shuffled blocks, so every run
has the same mix up to its last partial block and seeds move only the
continuous parameters and the block order.  Each workload has a fast, a
middle and a slow kind of item, mixed 1:3:1: item time is multimodal, and
this mix puts p50 in the middle of the middle mode and p90 in the middle
of the slow one, not in a gap between modes where the few items of a
partial block would move them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from bknet import certificate, density, distortion, hierarchy, netbuild, plmap, search
from bknet.geometry import Rect


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


def _mix(fast, middle, slow) -> list:
    return [fast, middle, middle, middle, slow]


def _blocks(rng: np.random.Generator, kinds: list):
    while True:
        for i in rng.permutation(len(kinds)):
            yield kinds[int(i)]


# steps of a two-dimensional additive recurrence (the plastic-number
# sequence): points k * STEPS mod 1 fill the unit square evenly for any k
_PLASTIC = 1.324717957244746
STEPS = np.array([1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2])


def _limit_squares(depth: int) -> list[tuple[Rect, int]]:
    # the squares `bknet gen-density limit --depth D` uses
    return [(Rect(2.0 ** -(k + 1), 2.0 ** -(k + 1), 2.0 ** -k, 2.0 ** -k), k)
            for k in range(1, depth + 1)]


# ---------------------------------------------------------------------------
# net-windows: gen-net and check-net on one window of a fixed 1.1M-point net

class NetWindows:
    name = "net-windows"
    SIDES = [4, 8, 12]
    MIX = _mix(*SIDES)
    X_RANGE = (-4.0, 1363.0)   # the diagonal of the K=4 schedule, plus margin

    def setup(self, seed: int):
        field = hierarchy.assemble_limit_density(1.0, _limit_squares(3))
        plan = netbuild.make_plan(field, 4)
        return netbuild.build_net(plan)

    def items(self, seed: int):
        # Corners follow additive recurrences from seeded starts, one per
        # side, so every run spreads each side evenly along the diagonal:
        # item time varies about twofold with position, and independent
        # draws made that a large part of the run-to-run spread.
        rng = np.random.default_rng([seed, 1])
        start = {side: rng.random(2) for side in self.SIDES}
        made = dict.fromkeys(self.SIDES, 0)
        lo, hi = self.X_RANGE
        for side in _blocks(rng, self.MIX):
            k = made[side]
            made[side] += 1
            u = (start[side] + k * STEPS) % 1.0
            x = lo + float(u[0]) * (hi - lo)
            y = x + (2.0 * float(u[1]) - 1.0) * side
            yield Rect(x, y, x + side, y + side)

    def run(self, net, window):
        pts, tags = net.points_in_window(window)
        csv = netbuild.net_to_csv(pts, tags)
        sep = netbuild.check_separation(net, window)
        cov = netbuild.check_covering(net, window)
        return pts, tags, csv, sep, cov

    def check(self, net, window, out) -> list[str]:
        pts, tags, _, sep, cov = out
        bad = []
        if not sep >= 0.5:
            bad.append(f"separation {sep} < 0.5")
        if not cov <= 2.5:
            bad.append(f"covering {cov} > 2.5")
        want_pts, want_tags = window_points(net, window)
        if not same_rows(pts, tags, want_pts, want_tags):
            bad.append(f"points_in_window gave {len(pts)} points, a direct scan "
                       f"{len(want_pts)} or others")
        best = brute_force_separation(net, window)
        if sep != best:
            bad.append(f"separation {sep!r} != brute force {best!r}")
        return bad

    def digest(self, out) -> str:
        _, _, csv, sep, cov = out
        return _sha(csv.encode(), sep, cov)


def window_points(net, window: Rect) -> tuple[np.ndarray, np.ndarray]:
    """The net's points in a closed window, found without the library's
    window query: a mask over the explicit points, plus the centres of the
    unit lattice squares that no scheduled square contains (tag 0)."""
    p = net.points
    inside = ((p[:, 0] >= window.x0) & (p[:, 0] <= window.x1)
              & (p[:, 1] >= window.y0) & (p[:, 1] <= window.y1))
    gi, gj = np.meshgrid(np.arange(math.floor(window.x0) - 1, math.ceil(window.x1) + 1),
                         np.arange(math.floor(window.y0) - 1, math.ceil(window.y1) + 1),
                         indexing="ij")
    gi, gj = gi.ravel(), gj.ravel()
    cx, cy = gi + 0.5, gj + 0.5
    keep = (cx >= window.x0) & (cx <= window.x1) & (cy >= window.y0) & (cy <= window.y1)
    for e in net.plan.schedule:
        s = e.square
        keep &= ~((gi >= s.x0) & (gi + 1 <= s.x1) & (gj >= s.y0) & (gj + 1 <= s.y1))
    pts = np.vstack([p[inside], np.column_stack([cx[keep], cy[keep]])])
    tags = np.concatenate([net.tags[inside], np.zeros(int(keep.sum()), dtype=int)])
    return pts, tags


def same_rows(pts, tags, other_pts, other_tags) -> bool:
    """Whether two (points, tags) sets hold the same rows in any order."""
    if pts.shape != other_pts.shape or tags.shape != other_tags.shape:
        return False
    a = np.lexsort((tags, pts[:, 1], pts[:, 0]))
    b = np.lexsort((other_tags, other_pts[:, 1], other_pts[:, 0]))
    return (np.array_equal(pts[a], other_pts[b])
            and np.array_equal(tags[a], other_tags[b]))


def brute_force_separation(net, window: Rect) -> float:
    """Minimum distance from each point in the window to every candidate
    point, over the candidate set check_separation documents (the window
    inflated by twice the largest cell spacing), found by window_points."""
    radius = 2.0 * max(1.0, net.max_cell_spacing)
    big = Rect(window.x0 - radius, window.y0 - radius,
               window.x1 + radius, window.y1 + radius)
    pts, _ = window_points(net, big)
    inside = np.flatnonzero((pts[:, 0] >= window.x0) & (pts[:, 0] <= window.x1)
                            & (pts[:, 1] >= window.y0) & (pts[:, 1] <= window.y1))
    dx = pts[inside, None, 0] - pts[None, :, 0]
    dy = pts[inside, None, 1] - pts[None, :, 1]
    d = np.sqrt(dx * dx + dy * dy)
    d[np.arange(len(inside)), inside] = np.inf
    return float(d.min())


# ---------------------------------------------------------------------------
# density-pipeline: gen-density (write) then gen-net and the measure report (read)

class DensityPipeline:
    name = "density-pipeline"
    KINDS = [(kind, depth) for kind in ("hierarchy", "limit") for depth in _mix(2, 3, 4)]
    PROBES = 256

    def setup(self, seed: int):
        return None

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        for kind, depth in _blocks(rng, self.KINDS):
            yield {
                "kind": kind,
                "depth": depth,
                "L": float(rng.uniform(1.5, 3.0)),
                "c": float(rng.uniform(0.25, 1.0)),
                # probe positions: half uniform on the domain, half inside
                # cells (chosen after the build, by index fraction)
                "uniform": rng.random((self.PROBES // 2, 2)),
                "in_cell": rng.random((self.PROBES - self.PROBES // 2, 3)),
            }

    @staticmethod
    def probes(field, item) -> list[tuple[float, float]]:
        d = field.domain
        pts = [(d.x0 + u * d.width, d.y0 + v * d.height) for u, v in item["uniform"]]
        n = len(field.cells)
        for f, u, v in item["in_cell"]:
            if n == 0:
                break
            r = field.cells[min(n - 1, int(f * n))][0]
            pts.append((r.x0 + u * r.width, r.y0 + v * r.height))
        return pts

    def run(self, state, item):
        if item["kind"] == "hierarchy":
            consts = certificate.toy_constants(item["L"], item["c"], N=4, M=2)
            field, hier = hierarchy.build_hierarchy(item["L"], item["c"], item["depth"], consts)
            hier.validate()
        else:
            field = hierarchy.assemble_limit_density(item["c"], _limit_squares(item["depth"]))
        text = density.field_to_json(field)
        back = density.field_from_json(text)
        probes = self.probes(field, item)
        values = [field.value_at(x, y) for x, y in probes]
        plan = netbuild.make_plan(field, 3)
        net = netbuild.build_net(plan)
        reports = [netbuild.measure_report(net, plan, k)
                   for k in range(1, len(plan.schedule) + 1)]
        return field, text, back, probes, values, net, reports

    def check(self, state, item, out) -> list[str]:
        field, _, back, probes, values, _, reports = out
        bad = []
        if back != field:
            bad.append("JSON round trip changed the field")
        want = lookup_values(field, np.array(probes))
        if not np.array_equal(np.array(values), want):
            bad.append("value_at disagrees with the vectorised cell lookup")
        for k, rows in enumerate(reports, start=1):
            for row in rows:
                if not abs(row["count"] - row["target"]) <= 2 * math.sqrt(row["target"]) + 1:
                    bad.append(f"measure report k={k} cell {row['cell']} off by {row['error']}")
        return bad

    def digest(self, out) -> str:
        _, text, _, _, values, net, reports = out
        rows = [(r["count"], r["target"]) for rows in reports for r in rows]
        return _sha(text.encode(), values, net.points.tobytes(), net.tags.tobytes(), rows)


def lookup_values(field, pts: np.ndarray) -> np.ndarray:
    """Half-open cell lookup for many points at once; the first listed cell
    that contains a point wins, otherwise the field default."""
    if not field.cells:
        return np.full(len(pts), field.default)
    box = np.array([(r.x0, r.y0, r.x1, r.y1) for r, _ in field.cells])
    val = np.array([v for _, v in field.cells])
    x, y = pts[:, :1], pts[:, 1:]
    hit = (box[:, 0] <= x) & (x < box[:, 2]) & (box[:, 1] <= y) & (y < box[:, 3])
    first = hit.argmax(axis=1)
    return np.where(hit.any(axis=1), val[first], field.default)


# ---------------------------------------------------------------------------
# stretch-search: the distortion lab on checkerboard maps of 16 to 64 cells

class StretchSearch:
    name = "stretch-search"
    SHAPES = [(4, 2), (8, 2), (8, 4)]
    MIX = _mix(*SHAPES)
    # 1000 steps, not 2000: a run needs 100 items for its p90 and at 2000
    # steps those took over a minute on a two-core machine
    BUDGET = 1000
    L, C = 2.0, 1.0
    SUBSET = 6

    def setup(self, seed: int):
        fields = {N: density.make_checkerboard(N, self.C) for N in {N for N, _ in self.SHAPES}}
        grids = {(N, M): certificate.marked_grid(N, M) for N, M in self.SHAPES}
        return fields, grids

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        for N, M in _blocks(rng, self.MIX):
            yield {
                "N": N,
                "M": M,
                "seed": int(rng.integers(2 ** 31)),
                "subset": np.sort(rng.choice(N * M + 1, self.SUBSET, replace=False)),
            }

    def run(self, state, item):
        fields, grids = state
        N, M = item["N"], item["M"]
        field = fields[N]
        consts = certificate.toy_constants(self.L, self.C, N, M)
        res = search.search_min_stretch(field, consts, self.BUDGET, item["seed"])
        report = certificate.evaluate_stretch(res.plmap, grids[(N, M)], consts)
        metrics = plmap.pl_metrics(res.plmap, field)
        NM = N * M
        X = np.array([(p / NM, 0.0) for p in range(NM + 1)])   # bottom marked row
        Y = np.array([res.plmap(p) for p in X])
        row = distortion.greedy_distortion(X, Y, restarts=2, seed=item["seed"])
        sub = item["subset"]
        exact = distortion.pair_distortion(X[sub], Y[sub])
        greedy = distortion.greedy_distortion(X[sub], Y[sub], restarts=2, seed=item["seed"])
        return res, report, metrics, row, exact, greedy

    def check(self, state, item, out) -> list[str]:
        res, _, metrics, _, exact, greedy = out
        bad = []
        if not (np.diff(np.array(res.trace)) <= 0).all():
            bad.append("search objective trace increased")
        for lip in (res.lip, metrics.lip):
            if not lip <= self.L + 1e-9:
                bad.append(f"Lipschitz constant {lip} above the cap {self.L}")
        if not greedy.distortion >= exact.distortion - 1e-9:
            bad.append(f"greedy {greedy.distortion} below exact {exact.distortion}")
        return bad

    def digest(self, out) -> str:
        res, report, metrics, row, exact, greedy = out
        return _sha(res.trace, res.plmap.vertices.tobytes(), report.pair_ratios.tobytes(),
                    report.regular.tobytes(), metrics.lip, metrics.lip_inv,
                    metrics.mismatch_area, row, exact, greedy)


WORKLOADS = {w.name: w for w in (NetWindows(), DensityPipeline(), StretchSearch())}
