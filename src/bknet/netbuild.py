"""Separated nets from density fields.

A plan schedules disjoint integer-vertex squares of geometrically growing
side along the diagonal; inside each square the reciprocal transplanted
density decides how finely each subdivision cell is filled with points.
Outside the squares the net is the unit lattice of integer-square centers,
materialized lazily per query window.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .density import DensityField, reciprocal_transplant
from .geometry import Rect, Similarity


def _workers() -> int:
    env = os.environ.get("BKNET_THREADS")
    if env:
        return max(1, int(env))
    return -1


@dataclass(frozen=True)
class ScheduleEntry:
    square: Rect     # integer vertices, axis parallel
    side: int        # l_k
    m: int           # m_k


@dataclass(frozen=True)
class NetPlan:
    density: DensityField
    schedule: tuple[ScheduleEntry, ...]

    def __post_init__(self):
        c = self.density.amplitude
        prev_side, prev_ratio = 0, math.inf
        for e in self.schedule:
            if e.side <= prev_side:
                raise ValueError("square sides must be strictly increasing")
            ratio = e.m / e.side
            if ratio >= prev_ratio:
                raise ValueError("m_k/l_k must be strictly decreasing")
            if e.side / e.m < 2 * (1 + c):
                raise ValueError(
                    f"l_k/m_k = {e.side / e.m} below 2(1+c) = {2 * (1 + c)}")
            prev_side, prev_ratio = e.side, ratio
        for i, a in enumerate(self.schedule):
            for b in self.schedule[i + 1:]:
                if a.square.overlaps_interior(b.square):
                    raise ValueError("schedule squares overlap")


def make_plan(density: DensityField, K: int) -> NetPlan:
    """Schedule K squares: l_k = 4^(k+k0), m_k = 2^k, with k0 the smallest
    offset making l_1/m_1 >= 2(1+c); squares sit on the diagonal with unit
    gaps starting at the origin."""
    if K < 0:
        raise ValueError("K must be >= 0")
    c = density.amplitude
    k0 = 0
    while 4 ** (1 + k0) / 2 < 2 * (1 + c):
        k0 += 1
    entries = []
    t = 0
    for k in range(1, K + 1):
        side = 4 ** (k + k0)
        entries.append(ScheduleEntry(Rect(t, t, t + side, t + side), side, 2 ** k))
        t += side + 1
    return NetPlan(density, tuple(entries))


@dataclass(frozen=True)
class Net:
    plan: NetPlan
    points: np.ndarray           # explicit points inside the squares
    tags: np.ndarray             # schedule index (1-based) per explicit point
    counts: tuple[np.ndarray, ...]  # per square: n_ki as an (m, m) array

    @property
    def max_cell_spacing(self) -> float:
        """Largest point spacing over all subdivision cells (>= 1 for the
        background)."""
        best = 1.0
        for e, n in zip(self.plan.schedule, self.counts):
            cell = e.side / e.m
            best = max(best, float((cell / n).max()))
        return best

    def points_in_window(self, window: Rect) -> tuple[np.ndarray, np.ndarray]:
        """Explicit points plus lazily materialized background lattice
        centers inside the window.  Returns (points, tags); background
        points carry tag 0."""
        inside = ((self.points[:, 0] >= window.x0) & (self.points[:, 0] <= window.x1)
                  & (self.points[:, 1] >= window.y0) & (self.points[:, 1] <= window.y1))
        pts = [self.points[inside]]
        tags = [self.tags[inside]]

        xs = np.arange(math.floor(window.x0), math.ceil(window.x1))
        ys = np.arange(math.floor(window.y0), math.ceil(window.y1))
        if len(xs) and len(ys):
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            cx = gx.ravel() + 0.5
            cy = gy.ravel() + 0.5
            keep = (cx >= window.x0) & (cx <= window.x1) & (cy >= window.y0) & (cy <= window.y1)
            # drop centers of integer squares contained in a scheduled square
            for e in self.plan.schedule:
                s = e.square
                keep &= ~((gx.ravel() >= s.x0) & (gx.ravel() + 1 <= s.x1)
                          & (gy.ravel() >= s.y0) & (gy.ravel() + 1 <= s.y1))
            bg = np.column_stack([cx[keep], cy[keep]])
            pts.append(bg)
            tags.append(np.zeros(len(bg), dtype=int))
        allp = np.vstack(pts)
        return allp, np.concatenate(tags)


def _square_cells(plan: NetPlan, k: int):
    """Yield (i, j, T, integral) for the m x m cells T of schedule entry k
    (1-based), integrating the reciprocal density transplanted onto the
    square."""
    e = plan.schedule[k - 1]
    dom = plan.density.domain
    scale = e.side / dom.width
    phi = Similarity(scale, e.square.x0 - dom.x0 * scale, e.square.y0 - dom.y0 * scale)
    rho_k = reciprocal_transplant(plan.density, phi)
    cell = e.side / e.m
    for i in range(e.m):
        for j in range(e.m):
            T = Rect(e.square.x0 + i * cell, e.square.y0 + j * cell,
                     e.square.x0 + (i + 1) * cell, e.square.y0 + (j + 1) * cell)
            yield i, j, T, rho_k.integrate(T)


def build_net(plan: NetPlan) -> Net:
    """Fill each scheduled square: the reciprocal density is transplanted
    onto the square, the square is cut into m^2 cells, and each cell gets
    n^2 evenly spaced centers with n = floor(sqrt(integral over the cell))."""
    points = []
    tags = []
    counts = []
    for idx, e in enumerate(plan.schedule, start=1):
        cell = e.side / e.m
        n_arr = np.zeros((e.m, e.m), dtype=int)
        for i, j, T, integral in _square_cells(plan, idx):
            n = int(math.floor(math.sqrt(integral)))
            if n == 0:
                raise ValueError(f"empty cell in square {idx}: plan invariant violated")
            n_arr[i, j] = n
            step = cell / n
            ux = T.x0 + step * (np.arange(n) + 0.5)
            uy = T.y0 + step * (np.arange(n) + 0.5)
            gx, gy = np.meshgrid(ux, uy, indexing="ij")
            points.append(np.column_stack([gx.ravel(), gy.ravel()]))
            tags.append(np.full(n * n, idx, dtype=int))
        counts.append(n_arr)
    if points:
        allp = np.vstack(points)
        allt = np.concatenate(tags)
    else:
        allp = np.zeros((0, 2))
        allt = np.zeros(0, dtype=int)
    return Net(plan, allp, allt, tuple(counts))


def check_separation(net: Net, window: Rect) -> float:
    """Exact minimum pairwise distance over pairs with at least one point
    in the window; the candidate set is inflated so boundary pairs are
    not missed."""
    radius = 2.0 * max(1.0, net.max_cell_spacing)
    big = Rect(window.x0 - radius, window.y0 - radius,
               window.x1 + radius, window.y1 + radius)
    pts, _ = net.points_in_window(big)
    inside = ((pts[:, 0] >= window.x0) & (pts[:, 0] <= window.x1)
              & (pts[:, 1] >= window.y0) & (pts[:, 1] <= window.y1))
    if inside.sum() < 2:
        raise ValueError("window contains fewer than 2 points")
    tree = cKDTree(pts)
    d, _ = tree.query(pts[inside], k=2, workers=_workers())
    return float(d[:, 1].min())


def check_covering(net: Net, window: Rect) -> float:
    """Covering radius under-approximation: max distance to the net over a
    sample grid of step 1/64 (additive error <= sqrt(2)/128)."""
    step = 1.0 / 64.0
    radius = 2.0 * max(1.0, net.max_cell_spacing) + 2.0
    big = Rect(window.x0 - radius, window.y0 - radius,
               window.x1 + radius, window.y1 + radius)
    pts, _ = net.points_in_window(big)
    if len(pts) == 0:
        raise ValueError("no net points near the window")
    tree = cKDTree(pts)
    xs = np.arange(window.x0, window.x1 + step / 2, step)
    ys = np.arange(window.y0, window.y1 + step / 2, step)
    worst = 0.0
    chunk = max(1, int(2_000_000 / max(1, len(ys))))
    for start in range(0, len(xs), chunk):
        gx, gy = np.meshgrid(xs[start:start + chunk], ys, indexing="ij")
        q = np.column_stack([gx.ravel(), gy.ravel()])
        d, _ = tree.query(q, k=1, workers=_workers())
        worst = max(worst, float(d.max()))
    return worst


def measure_report(net: Net, plan: NetPlan, k: int) -> list[dict]:
    """Per-cell comparison of point count against the density integral for
    schedule entry k (1-based).  The floor construction guarantees
    |count - target| <= 2 sqrt(target) + 1."""
    if not (1 <= k <= len(plan.schedule)):
        raise ValueError("k outside schedule")
    n_arr = net.counts[k - 1]
    out = []
    for i, j, T, target in _square_cells(plan, k):
        count = int(n_arr[i, j]) ** 2
        out.append({
            "cell": (T.x0, T.y0, T.x1, T.y1),
            "count": count,
            "target": target,
            "error": abs(count - target),
        })
    return out


# ---------------------------------------------------------------------------
# CSV I/O

def net_to_csv(points: np.ndarray, tags: np.ndarray) -> str:
    buf = io.StringIO()
    buf.write("x,y,tag\n")
    for (x, y), t in zip(points, tags):
        tag = "background" if t == 0 else str(int(t))
        buf.write(f"{float(x)!r},{float(y)!r},{tag}\n")
    return buf.getvalue()


def net_from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != "x,y,tag":
        raise ValueError("bad net CSV header")
    pts, tags = [], []
    for line in lines[1:]:
        sx, sy, st = line.split(",")
        pts.append((float(sx), float(sy)))
        tags.append(0 if st == "background" else int(st))
    return np.array(pts).reshape(-1, 2), np.array(tags, dtype=int)

