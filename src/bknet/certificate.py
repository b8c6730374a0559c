"""Quantitative stretch-certificate machinery.

Marked grids over the thin checkerboard rectangle, the three inequality
evaluators that certify a constant tuple, a deterministic scheduler that
produces a feasible tuple for any (L, c), and the stretch evaluator that
runs a candidate map over all marked pairs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

Point = tuple[float, float]


@dataclass(frozen=True)
class CertificateConstants:
    """The tuple (L, c, N, M, k, l, m, mu, eps) driving the certificate.

    L > 1 is the biLipschitz bound under attack, c > 0 the checkerboard
    amplitude.  N, M are the grid counts; k is the per-level stretch
    gain; l the regularity slack; m the vector-deviation cap; mu and eps
    the Jacobian-mismatch budgets.
    """

    L: float
    c: float
    N: int
    M: int
    k: float
    l: float
    m: float
    mu: float
    eps: float

    def __post_init__(self):
        if not self.L > 1:
            raise ValueError("L must exceed 1")
        if not self.c > 0:
            raise ValueError("c must be positive")
        if self.N < 1 or self.M < 1:
            raise ValueError("N and M must be positive integers")
        for name in ("k", "l", "m", "mu", "eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class MarkedGrid:
    """Vertices of the M x M subdivision of each of the N squares of the
    thin rectangle [0,1] x [0,1/N], plus all horizontal-edge pairs."""

    N: int
    M: int

    def __post_init__(self):
        if self.N < 1 or self.M < 1:
            raise ValueError("N and M must be >= 1")

    def point(self, i: int, p: int, q: int) -> Point:
        """x_pq^i = ((p + M(i-1))/(NM), q/(NM)), 1 <= i <= N, 0 <= p,q <= M."""
        NM = self.N * self.M
        return ((p + self.M * (i - 1)) / NM, q / NM)

    @property
    def points(self) -> list[Point]:
        NM = self.N * self.M
        return [(a / NM, b / NM) for b in range(self.M + 1) for a in range(NM + 1)]

    @property
    def pairs(self) -> list[tuple[Point, Point]]:
        """All horizontal edges ((p/NM, s/NM), ((p+1)/NM, s/NM))."""
        return _as_pairs(*_pair_rows(0.0, 1.0, 0.0, 1.0 / self.N, self.N, self.M))


def _marked_rows(lam, y, top, N: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """(rectangle index, height) of each marked row y + lam * s / NM,
    s = 0..M, at or below top, rectangle by rectangle (lam, y and top are
    equal-length arrays)."""
    py = y[:, None] + lam[:, None] * np.arange(M + 1) / (N * M)
    rect, s = np.nonzero(py <= top[:, None])
    return rect, py[rect, s]


def _pair_rows(ax, lam, y, top, N: int, M: int,
               kept: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The marked pairs scaled by lam from (ax, y) of each rectangle (one as
    floats, or many as equal-length arrays), row by row: NM edges from
    ax + lam * p / NM to ax + lam * (p + 1) / NM per row, rows lam / NM
    apart, keeping the rows at or below top.  With `kept`, only the edges
    of even p, which share no endpoint.  Returns the columns x0 and x1,
    each (rows, edges per row), and the rows' heights."""
    NM = N * M
    ax, lam, y, top = np.atleast_1d(ax, lam, y, top)
    rect, py = _marked_rows(lam, y, top, N, M)
    xs = ax[rect, None] + lam[rect, None] * np.arange(NM + 1) / NM
    step = 2 if kept else 1
    return xs[:, :-1:step], xs[:, 1::step], py


def _as_pairs(x0: np.ndarray, x1: np.ndarray, py: np.ndarray) -> list[tuple[Point, Point]]:
    """_pair_rows' columns as edges ((x0, y), (x1, y)), row by row; a row's
    edges share its height's float."""
    ys = [v for v in py.tolist() for _ in range(x0.shape[1])]
    return list(zip(zip(x0.ravel().tolist(), ys), zip(x1.ravel().tolist(), ys)))


def marked_grid(N: int, M: int) -> MarkedGrid:
    return MarkedGrid(N, M)


def regularity(W: Sequence[float] | np.ndarray, A: float, N: int, l: float) -> np.ndarray:
    """A vector between images of corresponding marked points is regular
    when its x-projection strictly exceeds (1-l)A/N.  W may be one vector
    or an array of them along the last axis; the result has W's shape
    without that axis."""
    return np.asarray(W)[..., 0] > (1.0 - l) * A / N


# ---------------------------------------------------------------------------
# the three claim evaluators

def claim1_lhs(consts: CertificateConstants, A: float) -> float:
    """Upper bound for the x-projection of the marked polygon's image when
    every square is irregular; the certificate needs this to stay below A."""
    N, M, k, l, L = consts.N, consts.M, consts.k, consts.l, consts.L
    share = N / (2 * M + 2)
    return (share * (1 - l) * A / N
            + ((1 + k) * A / N) * (N - share)
            + 2 * L / N)


def claim1_margin(consts: CertificateConstants, A: float) -> float:
    """Fraction of the pigeonhole slack left unconsumed.

    The inequality claim1_lhs < A rearranges to
        k(1-beta) + 2L/(NA) < beta*l,  beta = 1/(2M+2),
    so the natural margin is 1 - consumed/slack.  (A margin relative to A
    itself is bounded above by l/(2M+2) and can never reach percent size.)
    """
    beta = 1.0 / (2 * consts.M + 2)
    slack = beta * consts.l
    consumed = consts.k * (1 - beta) + 2 * consts.L / (consts.N * A)
    return 1.0 - consumed / slack


def claim2_bound(consts: CertificateConstants) -> float:
    """Worst-case N|W - W'| over regular vectors: 2L sqrt(l^2 + l).
    Certified when this does not exceed m."""
    l = consts.l
    return 2 * consts.L * math.sqrt(l * l + l)


def claim3_lhs(consts: CertificateConstants) -> float:
    """Area-difference bound between the images of adjacent squares when
    all connecting vectors agree to m/N: certified when < c/(2N^2)."""
    L, N, M, m = consts.L, consts.N, consts.M, consts.m
    u = m / N + 2 * L / (M * N)
    return (2 * L / N) * u + math.pi * u * u


def feasibility_report(consts: CertificateConstants) -> dict:
    """All certificate inequalities with lhs, rhs, pass flag, and margin."""
    A = 1.0 / consts.L  # worst-case base stretch
    c1 = claim1_lhs(consts, A)
    c2 = claim2_bound(consts)
    c3 = claim3_lhs(consts)
    c3_rhs = consts.c / (2 * consts.N ** 2)
    eps_cap_mu = consts.mu / consts.N ** 2
    eps_cap_c = consts.c / (8 * consts.N ** 2 * consts.L ** 2)
    return {
        "constants": asdict(consts),
        "claim1": {
            "lhs": c1, "rhs": A, "pass": c1 < A,
            "margin": claim1_margin(consts, A),
        },
        "claim2": {
            "lhs": c2, "rhs": consts.m, "pass": c2 <= consts.m,
            "margin": 1.0 - c2 / consts.m,
        },
        "claim3": {
            "lhs": c3, "rhs": c3_rhs, "pass": c3 < c3_rhs,
            "margin": 1.0 - c3 / c3_rhs,
        },
        "epsilon_caps": {
            "eps": consts.eps,
            "mu_over_N2": eps_cap_mu,
            "c_over_8N2L2": eps_cap_c,
            "pass": consts.eps <= min(eps_cap_mu, eps_cap_c),
            "margin": 1.0 - consts.eps / min(eps_cap_mu, eps_cap_c),
        },
    }


def schedule_constants(L: float, c: float) -> CertificateConstants:
    """Produce a certified constant tuple for (L, c).

    Quantifier order: pick M, then m from the Claim 3 margin, then l from
    Claim 2 at half the cap, then k at a quarter of the pigeonhole slack,
    then N so the boundary term eats at most another quarter.  Every
    inequality then holds with at least a factor-two margin.
    """
    if not L > 1:
        raise ValueError("L must exceed 1")
    if not c > 0:
        raise ValueError("c must be positive")
    M = 1000
    # Claim 3 at half strength: 2Lu + pi u^2 = c/4 with u = m + 2L/M
    u = (-2 * L + math.sqrt(4 * L * L + math.pi * c)) / (2 * math.pi)
    while 2 * L / M > u / 2:
        M *= 10
    return _complete_constants(L, c, None, M, u - 2 * L / M)


def toy_constants(L: float = 2.0, c: float = 1.0, N: int = 4, M: int = 2) -> CertificateConstants:
    """Small-N constants for desk-scale runs.  The k, l, m values follow
    the scheduler's formulas but nothing at this scale certifies; use
    schedule_constants for a feasible tuple."""
    if N < 1 or M < 1:   # before the formulas divide by N and 2M+2
        raise ValueError("N and M must be positive integers")
    return _complete_constants(L, c, N, M, c / (16 * L))


def _complete_constants(L: float, c: float, N: int | None, M: int,
                        m: float) -> CertificateConstants:
    """Derive l, k, mu and eps from (L, c, N, M, m) by the scheduler's
    formulas.  N=None picks the smallest N >= 11 for which the Claim 1
    boundary term takes at most a quarter of the pigeonhole slack."""
    # Claim 2 at half strength: 2L sqrt(l^2+l) = m/2
    B = (m / (4 * L)) ** 2
    l = (-1.0 + math.sqrt(1.0 + 4.0 * B)) / 2.0
    beta = 1.0 / (2 * M + 2)
    k = beta * l / 4.0
    if N is None:
        # Claim 1 boundary term 2L/(N*A) = 2L^2/N held to a quarter of beta*l
        N = max(11, math.ceil(8 * L * L / (beta * l)))
    mu = c / (8 * L * L)
    eps = 0.5 * mu / N ** 2
    return CertificateConstants(L=L, c=c, N=N, M=M, k=k, l=l, m=m, mu=mu, eps=eps)


def required_depth(L: float, k: float) -> int:
    """Smallest integer i with (1+k)^i > L^2: the level at which the
    accumulated stretch gain contradicts an L-biLipschitz bound."""
    if not L > 1:
        raise ValueError("L must exceed 1")
    if not k > 0:
        raise ValueError("k must be positive")
    t = 2.0 * math.log(L) / math.log1p(k)
    return int(math.floor(t)) + 1


# ---------------------------------------------------------------------------
# stretch evaluation on concrete maps

@dataclass(frozen=True)
class StretchReport:
    """Result of running a candidate map over a marked grid."""

    A: float                                 # realized base stretch
    pair_ratios: np.ndarray                  # per marked pair, grid order
    flagged_index: int | None                # first (1+k)A-stretched pair
    flagged_pair: tuple[Point, Point] | None
    flagged_ratio: float | None
    vectors: np.ndarray                      # W_pq^i, shape (N-1, M+1, M+1, 2)
    regular: np.ndarray                      # bool, shape (N-1, M+1, M+1)
    regular_squares: np.ndarray              # bool, shape (N-1,)

    @property
    def any_flagged(self) -> bool:
        return self.flagged_index is not None


def evaluate_stretch(f: Callable[[Point], Sequence[float]],
                     grid: MarkedGrid,
                     consts: CertificateConstants) -> StretchReport:
    """Compute the base stretch, all marked-pair ratios, the difference
    vectors between corresponding marked points of adjacent squares, and
    their regularity; flag the first pair stretched beyond (1+k)A.

    f is called exactly once per marked point, in grid.points order."""
    N, M = grid.N, grid.M
    NM = N * M

    def ev(p: Point) -> np.ndarray:
        out = f(p)
        if out is None:
            raise ValueError(f"map evaluator undefined at {p}")
        return np.asarray(out, dtype=float)

    # img[q, a] is the image of (a/NM, q/NM); x_pq^i sits in column p + M(i-1)
    img = np.array([ev(p) for p in grid.points]).reshape(M + 1, NM + 1, 2)
    A = float(np.hypot(*(img[0, NM] - img[0, 0])))

    gap = 1.0 / NM
    d = img[:, 1:] - img[:, :-1]                  # horizontal pairs, grid order
    ratios = (np.hypot(d[..., 0], d[..., 1]) / gap).ravel()
    over = np.flatnonzero(ratios >= (1.0 + consts.k) * A)
    flagged_index = int(over[0]) if len(over) else None

    # W_pq^i: columns M apart, from the first column of every square but the last
    w = img[:, M:] - img[:, :-M]
    cols = M * np.arange(N - 1)[:, None] + np.arange(M + 1)
    vectors = w[:, cols].transpose(1, 2, 0, 3)    # (N-1, p, q, 2)
    regular = regularity(vectors, A, N, consts.l)

    return StretchReport(
        A=A,
        pair_ratios=ratios,
        flagged_index=flagged_index,
        flagged_pair=grid.pairs[flagged_index] if flagged_index is not None else None,
        flagged_ratio=float(ratios[flagged_index]) if flagged_index is not None else None,
        vectors=vectors,
        regular=regular,
        regular_squares=regular.all(axis=(1, 2)),
    )


def pigeonhole_row(irregular: np.ndarray) -> tuple[int, int, int]:
    """Given a boolean array of irregular flags indexed (i-1, p, q) pick,
    one irregular vector per irregular square, the row q and square-index
    parity hosting the most of them.

    Returns (row, parity, count).  When every square has an irregular
    vector, count >= N_sq / (2M+2) with N_sq = number of squares checked,
    because the chosen vectors spread over at most (M+1) rows x 2 parities.
    """
    nsq, _, mp1 = irregular.shape
    buckets: dict[tuple[int, int], int] = {}
    for i in range(nsq):
        hits = np.argwhere(irregular[i])
        if len(hits) == 0:
            continue
        q = int(hits[0][1])
        key = (q, i % 2)
        buckets[key] = buckets.get(key, 0) + 1
    if not buckets:
        return (0, 0, 0)
    (row, parity), count = max(buckets.items(), key=lambda kv: (kv[1], -kv[0][0], -kv[0][1]))
    return (row, parity, count)
