"""Cohort-hashed bit vectors with permanent randomized response and a
regularized least-squares decoder.

Users are split uniformly into m cohorts; cohort c hashes zones into k bit
positions with its own public hash function, so each zone lights one bit
per cohort (different bits in different cohorts, which is what makes the
decoding well-posed). The bit vector is then reported with flip parameter
f = 2/(e^{eps/2} + 1): a set bit stays 1 with probability 1 - f/2, a clear
bit turns 1 with probability f/2, both rounded onto the 2^-16 grid of
``one_hot_rr``'s 16-bit lanes (so f/2 is never below 2^-16, and the
budget must be at least about 2^-13 for the grid to keep the two apart).
One report per user, so only this permanent randomization round applies.
This is the client of ``HashedSketch`` with m rows (cohorts) of width k,
the same sketch CMS uses with its sizes named the other way round; only
the decoder differs.

Decoding debiases each cohort's bit counts and fits per-zone counts by
nonnegative L1-regularized least squares (penalty weight picked on an
even/odd cohort split; the full system is the sum of the two halves).
The Gram matrix of the fit is counted from same-bucket zone pairs, which
is O(m * (L + L^2/k)) rather than one m x L comparison per zone. Each fit
solves its stationarity equations exactly on a support by Cholesky and
keeps the solution only when coordinate descent's stopping rule certifies
it; otherwise a coordinate-descent sweep moves the iterate and the solve
is retried. Fits along the penalty grid are warm-started from the last.
"""
from __future__ import annotations

import warnings
from typing import ClassVar, Optional

import numpy as np

from ..domain import FrequencyEstimate
from ..errors import SingularFitWarning
from .base import _BLOCK_CELLS, FrequencyOracle, HashedSketch, RapporBatch, Stats

# relative penalty grid; 0 keeps the unpenalized fit in the running
_LAMBDA_GRID = (0.0, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
# coordinate-descent stopping rule: no coordinate moves by more than this
# tolerance relative to the largest; at most this many sweeps
_LASSO_SWEEPS = 400
_LASSO_TOL = 1e-12
# arrays of the pair pass alive at once; blocks are sized so that all of
# them together fit in one _BLOCK_CELLS block
_SCRATCH_ARRAYS = 8
# support exchanges tried per exact solve
_EXCHANGES = 4
# a Cholesky pivot below this fraction of its diagonal entry marks the
# support as collinear
_PIVOT_RTOL = 1e-10


def nonneg_lasso(
    gram: np.ndarray,
    linear: np.ndarray,
    penalty: float,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minimize 0.5 b'Gb - l'b + penalty*sum(b) over b >= 0.

    Each round solves ``G[F, F] b_F = (l - penalty)[F]`` exactly by
    Cholesky on a support F: the support of the current iterate, changed
    by a few vectorized exchanges (drop coordinates that came out
    nonpositive, add inactive ones whose coordinate update would be
    positive). A solution is returned only when cyclic coordinate
    descent's own stopping rule holds for it, checked for all coordinates
    at once. Otherwise one ordinary coordinate-descent sweep moves the
    iterate and the solve is retried once its support changes; the sweeps
    cover collinear or singular supports, so the result is the point
    descent converges to. ``start`` warm-starts the iterate, for example
    from the fit at a neighbouring penalty. Coordinates with zero
    curvature are pinned at zero. Deterministic for fixed inputs.
    """
    size = linear.size
    diag = np.diag(gram)
    live = diag > 0
    target = linear - penalty
    beta = np.zeros(size)
    if start is not None:
        beta[live] = np.maximum(start[live], 0.0)
    tried = None
    for _ in range(_LASSO_SWEEPS):
        support = beta > 0
        if tried is None or not np.array_equal(support, tried):
            tried = support
            found = _support_solve(gram, target, live, support)
            if found is not None and _cd_converged(gram, target, diag, live, found):
                return found
        if _cd_sweep(gram, target, diag, live, beta) <= _LASSO_TOL * (
            1.0 + float(np.abs(beta).max(initial=0.0))
        ):
            break
    return beta


def _cd_sweep(gram, target, diag, live, beta) -> float:
    """One cyclic coordinate-descent sweep over the live coordinates, in
    place; returns the largest coordinate move."""
    delta = 0.0
    for v in np.flatnonzero(live).tolist():
        residual = target[v] - (gram[v] @ beta - diag[v] * beta[v])
        new = max(0.0, residual / diag[v])
        delta = max(delta, abs(new - beta[v]))
        beta[v] = new
    return delta


def _cd_converged(gram, target, diag, live, beta) -> bool:
    """Coordinate descent's stopping rule, checked for every live
    coordinate at once: no closed-form update moves ``beta`` by more than
    the tolerance."""
    residual = (target - (gram @ beta - diag * beta))[live]
    moves = np.maximum(0.0, residual / diag[live]) - beta[live]
    scale = 1.0 + float(np.abs(beta).max(initial=0.0))
    return float(np.abs(moves).max(initial=0.0)) <= _LASSO_TOL * scale


def _support_solve(gram, target, live, support) -> Optional[np.ndarray]:
    """Exact minimizer on a support reached by a few vectorized exchanges.

    Returns the last solution that was positive on its whole support, or
    None when every support tried was collinear or gave a nonpositive
    coordinate.
    """
    candidate = None
    for _ in range(_EXCHANGES):
        beta = np.zeros(target.size)
        index = np.flatnonzero(support)
        try:
            beta[index] = _spd_solve(gram[np.ix_(index, index)], target[index])
        except np.linalg.LinAlgError:
            break
        kept = beta > 0
        if kept.sum() < index.size:
            support = kept
            continue
        candidate = beta
        grow = live & ~support & (target - gram[:, index] @ beta[index] > 0)
        if not grow.any():
            break
        support = support | grow
    return candidate


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a symmetric positive definite matrix; raises LinAlgError
    when a Cholesky pivot shows the columns to be (numerically) collinear,
    since then the minimizer on the support is not unique."""
    if not rhs.size:
        return rhs
    factor = np.linalg.cholesky(matrix)
    if np.any(np.diag(factor) ** 2 <= _PIVOT_RTOL * np.diag(matrix)):
        raise np.linalg.LinAlgError("collinear support")
    return np.linalg.solve(matrix, rhs)


class Rappor(HashedSketch):
    name: ClassVar[str] = "RAPPOR"

    def __init__(
        self,
        l_zones: int,
        epsilon: float,
        k: int = 64,
        m: int = 1024,
        hash_seed: int = 0,
    ):
        super().__init__(l_zones, epsilon, rows=m, width=k, hash_seed=hash_seed)
        self.k = int(k)
        self.m = int(m)

    def perturb_batch(self, zones, rng: np.random.Generator, rows=None) -> RapporBatch:
        """``rows``: each user's cohort, drawn from ``rng`` when None."""
        return RapporBatch(*self._perturb_rows(zones, rng, rows))

    def empty_stats(self) -> Stats:
        return self._stats(
            0, np.zeros((self.m, self.k), dtype=np.int64), np.zeros(self.m, dtype=np.int64)
        )

    def reduce(self, reports) -> Stats:
        """Per-(cohort, bit) sums, with the reports per cohort, by a flat
        ``bincount`` over blocks of ``_BLOCK_CELLS`` cells, so its keys and
        weights stay one block."""
        batch = RapporBatch.of(reports)
        n = batch.n_reports
        if n == 0:
            return self.empty_stats()
        cohort_sizes = np.bincount(self._row_index(batch), minlength=self.m)
        bit_sums = np.zeros(self.m * self.k)
        step = max(1, _BLOCK_CELLS // self.k)
        for start in range(0, n, step):
            keys = batch.cohort[start:start + step, None] * self.k + np.arange(self.k)
            bits = batch.bits[start:start + step]
            # bit sums are exact integers in float64, in any order
            bit_sums += np.bincount(keys.ravel(), weights=bits.ravel(), minlength=bit_sums.size)
        counts = bit_sums.astype(np.int64).reshape(self.m, self.k)
        return self._stats(n, counts, cohort_sizes)

    def _normal_equations(self, targets, weights, debiased):
        """Gram matrix and linear term of the weighted least-squares fit
        over the cohorts whose rows are given.

        Model: debiased[c] ~ w_c * (one-hot design of cohort c) @ counts,
        w_c = n_c / n, so gram[u, v] sums w_c^2 over the cohorts where
        zones u and v light the same bit. Only those same-bucket pairs are
        visited: each cohort's row is sorted by bucket, and entry i is
        paired with entries i + 1, i + 2, ... while the bucket matches.
        That is O(rows * (L + L^2/k)) work. The (m*k) x L design matrix is
        never built: cohorts are taken in blocks small enough that all
        scratch arrays of a block fit one ``_BLOCK_CELLS`` block, so the
        L x L result is the only large allocation.
        """
        rows, size = targets.shape
        squared = weights**2
        gram = np.zeros((size, size))
        upper = gram.ravel()
        linear = np.zeros(size)
        step = max(1, _BLOCK_CELLS // (_SCRATCH_ARRAYS * size))
        for start in range(0, rows, step):
            block = targets[start : start + step]
            cohorts = np.arange(block.shape[0])[:, None]
            linear += weights[start : start + step] @ debiased[start + cohorts, block]
            # stable sort of each cohort's buckets (a radix sort on the
            # narrowest type that holds k - 1): equal buckets keep zone
            # order, so every pair below has u < v
            order = np.argsort(
                block.astype(np.min_scalar_type(self.k - 1)), axis=1, kind="stable"
            )
            keys = (cohorts * self.k + np.take_along_axis(block, order, axis=1)).ravel()
            zones = order.ravel()
            pair_weights = squared[start + keys // self.k]
            # entry i pairs with i + d while i + d is inside its key's run
            ends = np.append(np.flatnonzero(np.diff(keys)) + 1, keys.size)
            run_ends = np.repeat(ends, np.diff(ends, prepend=0))
            hit = np.arange(keys.size)
            for d in range(1, keys.size):
                hit = hit[hit + d < run_ends[hit]]
                if not hit.size:
                    break
                np.add.at(upper, zones[hit] * size + zones[hit + d], pair_weights[hit])
        # mirror the upper triangle in strips, so no second L x L array
        for lo in range(0, size, step):
            gram[lo : lo + step] += gram[:, lo : lo + step].T
        gram[np.diag_indices(size)] = squared.sum()
        return gram, linear

    def _lasso_with_holdout(self, gram, linear, halves):
        """Penalty picked on the even/odd split, each half's fits chained
        by warm starts along the grid; the full fit starts from the mean
        of the two halves' fits at the chosen penalty."""
        lambda_max = float(np.max(linear, initial=0.0))
        if lambda_max <= 0.0:
            return nonneg_lasso(gram, linear, 0.0)
        best_rel, best_score, best_fits = _LAMBDA_GRID[0], None, None
        fits = (None, None)
        for rel in _LAMBDA_GRID:
            penalty = rel * lambda_max
            fits = tuple(
                nonneg_lasso(g_fit, l_fit, penalty, warm)
                for (g_fit, l_fit), warm in zip(halves, fits)
            )
            score = 0.0
            for beta, (g_out, l_out) in zip(fits, halves[::-1]):
                score += 0.5 * beta @ g_out @ beta - l_out @ beta
            if best_score is None or score < best_score - 1e-12:
                best_rel, best_score, best_fits = rel, score, fits
        start = 0.5 * (best_fits[0] + best_fits[1])
        return nonneg_lasso(gram, linear, best_rel * lambda_max, start)

    def decode(self, stats: Stats) -> FrequencyEstimate:
        p, q = self._probs.p, self._probs.q
        # per-(cohort, bit) sums minus their noise floor, over p - q
        debiased = (stats.counts - stats.row_sizes[:, None] * q) / (p - q)
        weights = stats.row_sizes / stats.n_reports
        halves = [
            self._normal_equations(
                self.targets[parity::2], weights[parity::2], debiased[parity::2]
            )
            for parity in (0, 1)
        ]
        (g_even, l_even), (g_odd, l_odd) = halves
        raw = self._decode(g_even + g_odd, l_even + l_odd, halves)
        return FrequencyEstimate.from_raw(raw, stats.n_reports)

    aggregate = FrequencyOracle.aggregate

    def _decode(self, gram, linear, halves) -> np.ndarray:
        """Solve the fit; zones with zero curvature are warned and pinned to 0."""
        dead = np.diag(gram) <= 0
        if dead.any():
            warnings.warn(
                f"{int(dead.sum())} zone(s) unreachable in the fit, estimating 0",
                SingularFitWarning,
                stacklevel=2,
            )
        return self._lasso_with_holdout(gram, linear, halves)
