"""BiLipschitz distortion between finite point sets.

Distortion of a bijection is Lip * Lip_inv, the product of the largest
expansion and the largest contraction over all pairs; it is
scale-invariant and equals 1 exactly when the bijection is a similarity.
pair_distortion enumerates all bijections (exact, tiny inputs only);
greedy_distortion scales further with seeded nearest-neighbor matchings
plus 2-swap local search, which evaluates only the swaps that move an
end of a largest- or smallest-ratio pair: no other swap can improve.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, permutations

import numpy as np

MAX_EXACT = 8


@dataclass(frozen=True)
class DistortionResult:
    mapping: tuple[int, ...]   # X[i] -> Y[mapping[i]]
    lip: float
    lip_inv: float

    @property
    def distortion(self) -> float:
        return self.lip * self.lip_inv


# pair entries evaluated at once when a batch of bijections is compared:
# bounds the temporaries of the exact search (8! bijections x 28 pairs)
# and of a batch of candidate 2-swaps, 64 KB per array
_CHUNK = 1 << 13


def _dist_matrix(P: np.ndarray) -> np.ndarray:
    d = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(-1))
    return d


def _check_inputs(X, Y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    for name, P in (("X", X), ("Y", Y)):
        if P.ndim != 2 or P.shape[1] != 2:
            raise ValueError(f"point set {name} must have shape (n, 2), got {P.shape}")
        if not np.isfinite(P).all():
            raise ValueError(f"point set {name} has a non-finite coordinate")
    if len(X) != len(Y):
        raise ValueError("point sets must have equal cardinality")
    if len(X) < 2:
        raise ValueError("need at least 2 points")
    return X, Y


class _Pairs:
    """Pairwise distances of X and Y over the pairs i < j.  Every bijection
    maps the pairs of Y onto themselves, so one check of the identity
    covers them all for duplicate points."""

    def __init__(self, X: np.ndarray, Y: np.ndarray):
        self.DY = _dist_matrix(Y)
        self.iu, self.ju = np.triu_indices(len(X), k=1)
        self.dx = _dist_matrix(X)[self.iu, self.ju]
        if np.any(self.dx == 0) or np.any(self.DY[self.iu, self.ju] == 0):
            raise ValueError("duplicate points in input")
        self.rows = max(1, _CHUNK // len(self.dx))   # bijections per batch

    def evaluate(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lip and lip_inv of every bijection X[i] -> Y[S[k, i]] in the rows of S.
        Rounding is monotone, so 1 / min(r) is bitwise max(1 / r) for r > 0."""
        r = self.DY[S[:, self.iu], S[:, self.ju]]
        r /= self.dx
        return r.max(axis=1), 1.0 / r.min(axis=1)

    def result(self, sigma) -> DistortionResult:
        lip, inv = self.evaluate(np.asarray(sigma)[None])
        return DistortionResult(tuple(int(s) for s in sigma), float(lip[0]), float(inv[0]))


def pair_distortion(X, Y) -> DistortionResult:
    """Exact minimum distortion over all bijections (|X| <= 8): the first
    minimum in lexicographic order, over batches of the permutation table."""
    X, Y = _check_inputs(X, Y)
    n = len(X)
    if n > MAX_EXACT:
        raise ValueError(f"exact search limited to {MAX_EXACT} points")
    pairs = _Pairs(X, Y)
    perms = permutations(range(n))
    best = None
    while True:
        S = np.fromiter(chain.from_iterable(islice(perms, pairs.rows)), dtype=np.intp)
        if not len(S):
            return best
        S = S.reshape(-1, n)
        lip, inv = pairs.evaluate(S)
        k = int(np.argmin(lip * inv))
        if best is None or lip[k] * inv[k] < best.distortion:
            best = DistortionResult(tuple(int(s) for s in S[k]), float(lip[k]), float(inv[k]))


def _nn_matching(X: np.ndarray, Y: np.ndarray, order: np.ndarray) -> np.ndarray:
    n = len(X)
    sigma = np.full(n, -1)
    used = np.zeros(n, dtype=bool)
    for i in order:
        d = ((Y - X[i]) ** 2).sum(-1)
        d[used] = np.inf
        j = int(d.argmin())
        sigma[i] = j
        used[j] = True
    return sigma


def _two_swap(pairs: _Pairs, sigma: np.ndarray) -> np.ndarray:
    """First-improvement 2-swap descent over the swaps (a, b), a < b, in
    the order of their pair indices.  A swap that moves no end of a
    largest-ratio and of a smallest-ratio pair keeps both ratios bit for
    bit, so its lip, its 1 / min and (rounding is monotone) their product
    cannot fall.  Only the at most 4n - 10 swaps touching those ends
    (cand, remade after each accepted swap) are evaluated, in batches, so
    the first that improves is the one a loop over every swap takes."""
    n, iu, ju = len(sigma), pairs.iu, pairs.ju

    def touching_ends() -> np.ndarray:
        r = pairs.DY[sigma[iu], sigma[ju]] / pairs.dx
        hot = np.zeros(n, dtype=bool)
        k = [r.argmax(), r.argmin()]
        hot[iu[k]] = hot[ju[k]] = True
        return np.flatnonzero(hot[iu] | hot[ju])

    cur = pairs.result(sigma).distortion
    cand = touching_ends()
    improved = True
    while improved:
        improved, i = False, 0
        while i < len(cand):
            ks = cand[i:i + pairs.rows]
            S = np.repeat(sigma[None], len(ks), axis=0)
            rows = np.arange(len(ks))
            S[rows, iu[ks]], S[rows, ju[ks]] = sigma[ju[ks]], sigma[iu[ks]]
            lip, inv = pairs.evaluate(S)
            vals = lip * inv
            hit = np.flatnonzero(vals < cur - 1e-15)
            if len(hit):
                k = int(ks[hit[0]])
                sigma[[iu[k], ju[k]]] = sigma[[ju[k], iu[k]]]
                cur = float(vals[hit[0]])
                improved = True
                cand = touching_ends()
                i = int(np.searchsorted(cand, k + 1))
            else:
                i += len(ks)
    return sigma


def greedy_distortion(X, Y, restarts: int = 8, seed: int = 0) -> DistortionResult:
    """Best distortion over seeded nearest-neighbor matchings refined by
    2-swap local search; an upper bound on the exact optimum.

    restarts=0 returns the single nearest-neighbor matching in index
    order, without local search.
    """
    X, Y = _check_inputs(X, Y)
    if restarts < 0:
        raise ValueError("restarts must be >= 0")
    n = len(X)
    pairs = _Pairs(X, Y)

    if restarts == 0:
        return pairs.result(_nn_matching(X, Y, np.arange(n)))

    rng = np.random.default_rng(seed)
    best = None
    for r in range(restarts):
        order = np.arange(n) if r == 0 else rng.permutation(n)
        res = pairs.result(_two_swap(pairs, _nn_matching(X, Y, order)))
        if best is None or res.distortion < best.distortion:
            best = res
    return best
