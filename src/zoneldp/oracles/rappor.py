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
the statistic and the decoder differ.

The statistic is the m x k table of per-(cohort, bit) sums. The reduction
sorts the reports stably on the cohort and adds each cohort's bit rows as
64-bit words of eight byte lanes, 255 rows at most at a time, so no lane
carries; no float weights or per-cell keys are built. On a 2-core host a
full 65,536-row chunk of the default sketch reduced in about 3.5 ms, 354
reports in about 0.15 ms.

Decoding fits per-zone counts by nonnegative L1-regularized least squares
(penalty weight picked on an even/odd cohort split; the full system is
the sum of the two halves). One pass over blocks of cohorts, each holding
both parities, assembles both halves' normal equations. It debiases only
the m x L bit sums the zones hash to, not the whole m x k table, and
counts each Gram matrix from same-bucket zone pairs, which is
O(m * (L + L^2/k)) rather than one m x L comparison per zone. A block
holds the cohorts that a pass over one half alone would, so each half's
sums come out bit for bit as if it were assembled on its own.
The whole decode, the normal equations' products included, runs on one
OpenBLAS thread (``one_blas_thread``), so its bits do not depend on the
host's core count, and no idle BLAS thread spins on against the next
round's block threads. On a 2-core host a decode of the default
1024 x 64 sketch took about 1 ms at L = 8 (354 users) and 45-50 ms at
L = 368 (20k users). Each fit
solves its stationarity equations exactly on a support by Cholesky,
exchanging coordinates until the support reaches its fixed point (a
positive solution with nothing left to add), turns out collinear or
repeats one already tried. It keeps the solution only when coordinate
descent's stopping rule certifies it; a coordinate-descent sweep moves
the iterate only when that fails, which in practice means a collinear
support. Each half's fits run down the penalty grid from the largest
penalty, each warm-started from the one before.
"""
from __future__ import annotations

import warnings
from typing import ClassVar, Optional

import numpy as np

from ..domain import FrequencyEstimate
from ..errors import SingularFitWarning
from .base import (
    _BLOCK_CELLS,
    FrequencyOracle,
    HashedSketch,
    RapporBatch,
    Stats,
    one_blas_thread,
)

# relative penalty grid; 0 keeps the unpenalized fit in the running
_LAMBDA_GRID = (0.0, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
# coordinate-descent stopping rule: no coordinate moves by more than this
# tolerance relative to the largest; at most this many sweeps
_LASSO_SWEEPS = 400
_LASSO_TOL = 1e-12
# a block of the Gram assembly holds _BLOCK_CELLS // _SCRATCH_ARRAYS cells
# of each cohort parity; its arrays, under 24 bytes a cell, then fit in one
# float64 block of _BLOCK_CELLS cells
_SCRATCH_ARRAYS = 8
# a Cholesky pivot below this fraction of its diagonal entry marks the
# support as collinear
_PIVOT_RTOL = 1e-10
# rows a uint8 lane adds up at most: 255 ones fill it exactly
_LANE_ROWS = 255


def nonneg_lasso(
    gram: np.ndarray,
    linear: np.ndarray,
    penalty: float,
    start: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Minimize 0.5 b'Gb - l'b + penalty*sum(b) over b >= 0.

    Each round solves ``G[F, F] b_F = (l - penalty)[F]`` exactly by
    Cholesky on a support F: the support of the current iterate, changed
    by vectorized exchanges (drop coordinates that came out nonpositive,
    add inactive ones whose coordinate update would be positive) until
    the fixed point, a positive solution with nothing left to add, or
    until the support is collinear or one already tried (a cycle). A
    solution is returned only when cyclic coordinate descent's own
    stopping rule holds for it, checked for all coordinates at once.
    Otherwise one ordinary coordinate-descent sweep moves the iterate and
    the solve is retried once its support changes; the sweeps cover
    collinear or singular supports. With G positive definite the
    minimizer is unique, so the result is the point descent converges
    to; with G singular it can be another minimizer. ``start``
    warm-starts the iterate, for example from the fit at a neighbouring
    penalty. Coordinates with zero curvature are pinned at zero. Descent
    that reaches ``_LASSO_SWEEPS`` sweeps without meeting its stopping rule
    returns its iterate with a SingularFitWarning naming the penalty and
    the last coordinate move. Deterministic for fixed inputs.
    """
    diag = gram.diagonal()
    live = diag > 0
    target = linear - penalty
    beta = np.zeros(linear.size)
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
        move = _cd_sweep(gram, target, diag, live, beta)
        if move <= _LASSO_TOL * (1.0 + float(np.abs(beta).max(initial=0.0))):
            break
    else:
        warnings.warn(
            f"the fit at penalty {penalty:.6g} stopped unconverged after "
            f"{_LASSO_SWEEPS} sweeps, last coordinate move {move:.3g}",
            SingularFitWarning,
            stacklevel=2,
        )
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
    """Exact minimizer on a support reached by vectorized exchanges.

    Each round solves the system on the support: coordinates that come
    out nonpositive are dropped, and when the solution is positive every
    inactive coordinate whose update would be positive is added. The
    exchanges stop at the fixed point, a positive solution with nothing
    left to add; at a collinear support, whose Cholesky pivot falls below
    ``_PIVOT_RTOL`` of its diagonal entry, so that the minimizer on it is
    not unique; or at a support already tried in this call, a cycle.
    Returns the last solution that was positive on its whole support, or
    None when every support tried was collinear or gave a nonpositive
    coordinate.
    """
    candidate = None
    tried = set()
    while (key := support.tobytes()) not in tried:
        tried.add(key)
        index = np.flatnonzero(support)
        rows = gram.take(index, axis=0)  # the support's columns, by symmetry
        solution = target[index]
        if index.size:
            matrix = rows.take(index, axis=1)
            try:
                factor = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                break
            if (factor.diagonal() ** 2 <= _PIVOT_RTOL * matrix.diagonal()).any():
                break
            solution = np.linalg.solve(matrix, solution)
        kept = solution > 0
        if not kept.all():
            support = support.copy()
            support[index[~kept]] = False
            continue
        candidate = np.zeros(target.size)
        candidate[index] = solution
        grow = live & ~support & (target - solution @ rows > 0)
        if not grow.any():
            break
        support = support | grow
    return candidate


def _segment_sums(bits: np.ndarray, cohort: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Bit sums of runs of the rows stably sorted by ``cohort``, one run
    from each of ``starts`` to the next, as a runs x width uint8 table.

    A run holds at most ``_LANE_ROWS`` rows of one cohort; the sorted rows,
    the largest array here, are freed on return.
    """
    order = np.argsort(cohort, kind="stable")  # a radix sort on narrow keys
    n, width = bits.shape
    rows = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    # bits of another dtype are cast, not reinterpreted; a permutation
    # never clips, and mode "raise" would gather through a copy
    np.take(bits.astype(np.uint8, copy=False), order, axis=0, out=rows[:, :width], mode="clip")
    words = np.add.reduceat(rows.view(np.uint64), starts, axis=0)
    return words.view(np.uint8)[:, :width]


class Rappor(HashedSketch):
    name: ClassVar[str] = "RAPPOR"
    batch_type = RapporBatch

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

    def _bounds(self) -> dict:
        return {"cohort": self.m, "bits": 2}

    def _layout(self) -> tuple:
        return self.name, (self.m, self.k), (self.m,), (self.m, self.k), self.hash_seed

    def _count(self, batch: RapporBatch) -> Stats:
        """Per-(cohort, bit) sums, with the reports per cohort.

        Every bit is 0 or 1, as ``reduce`` checks. The rows are gathered
        once, stably sorted by cohort and cast to uint8, into rows padded
        with zero bytes to whole 64-bit words. Each cohort's rows are added as
        words, eight byte lanes at a time, in segments of at most 255 rows,
        so no lane carries into the next and the sums are the same on any
        byte order. Each cohort's first segment sum is copied into the
        m x k int64 table and its further segments, if any, are added to
        it, so the second add reads only the small segment table.
        """
        n, cohort = batch.n_reports, batch.cohort
        cohort_sizes = np.bincount(cohort, minlength=self.m)
        segments = -(-cohort_sizes // _LANE_ROWS)
        first = np.cumsum(segments) - segments  # each cohort's first segment
        # segment s of cohort c begins at row begins[c] + 255 (s - first[c])
        begins = np.cumsum(cohort_sizes) - cohort_sizes
        starts = np.repeat(begins - _LANE_ROWS * first, segments)
        starts += _LANE_ROWS * np.arange(starts.size)
        lanes = _segment_sums(batch.bits, cohort.astype(np.min_scalar_type(self.m - 1)), starts)
        counts = np.zeros((self.m, self.k), dtype=np.int64)
        filled = cohort_sizes > 0
        counts[filled] = lanes[first[filled]]
        # a cohort's further segments, one per cohort at a time
        for rank in range(1, int(segments.max())):
            more = np.flatnonzero(segments > rank)
            counts[more] += lanes[first[more] + rank]
        return self._stats(n, counts, cohort_sizes)

    def _normal_equations(self, stats: Stats):
        """Gram matrix and linear term of the weighted least-squares fit
        over the even cohorts and over the odd ones, from one pass.

        Model: debiased[c] ~ w_c * (one-hot design of cohort c) @ counts,
        w_c = n_c / n, so a half's gram[u, v] sums w_c^2 over its cohorts
        where zones u and v light the same bit. Only those same-bucket
        pairs are visited, which is O(m * (L + L^2/k)) work, and only the
        m x L cells at ``targets`` are debiased. The (m*k) x L design
        matrix is never built: cohorts are taken in blocks small enough
        that all scratch arrays of a block fit one ``_BLOCK_CELLS`` block,
        so the two L x L results are the only large allocations. A block
        holds the same cohorts of each half that a pass over that half
        alone would, so each half's sums are added in that pass's order.
        """
        rows, size = self.targets.shape
        weights = stats.row_sizes / stats.n_reports
        grams = np.zeros((2, size, size))
        linears = np.zeros((2, size))
        # cohorts of one half in a block
        step = max(1, _BLOCK_CELLS // (_SCRATCH_ARRAYS * size))
        for lo in range(0, rows, 2 * step):
            self._add_block(stats, weights, lo, min(lo + 2 * step, rows), grams, linears)
        # mirror the upper triangles in strips, so no third L x L array
        for lo in range(0, size, step):
            grams[:, lo : lo + step] += grams[:, :, lo : lo + step].transpose(0, 2, 1)
        for parity in (0, 1):
            grams[parity][np.diag_indices(size)] = (weights[parity::2] ** 2).sum()
        return tuple(zip(grams, linears))

    def _add_block(self, stats, weights, lo, hi, grams, linears):
        """Add cohorts lo..hi-1 to the upper triangles of ``grams`` and to
        ``linears``, the even cohorts to the first of each and the odd to
        the second.

        Each cohort's (bucket, zone) keys are sorted, so equal buckets are
        adjacent and keep zone order, and entry i is paired with entries
        i + 1, i + 2, ... while the bucket matches: every pair has u < v.
        """
        p, q = self._probs.p, self._probs.q
        size = self.targets.shape[1]
        cohorts = np.r_[lo:hi:2, lo + 1 : hi : 2]
        # a key is (cohort * k + bucket) << shift | zone, unique in a block
        shift = max(size - 1, 1).bit_length()
        key_type = np.min_scalar_type((self.m * self.k << shift) - 1)
        cells = self.targets[cohorts]
        cells += (cohorts * self.k)[:, None]
        # written straight into the narrow type: no second int64 block
        keys = np.left_shift(cells, shift, out=np.empty(cells.shape, key_type), casting="unsafe")
        keys |= np.arange(size, dtype=key_type)
        # the cells the fit reads, minus their noise floor, over p - q
        cells = np.take(stats.counts, cells)
        cells = cells - stats.row_sizes[cohorts, None] * q
        cells /= p - q
        evens = (hi - lo + 1) // 2
        linears[0] += weights[lo:hi:2] @ cells[:evens]
        linears[1] += weights[lo + 1 : hi : 2] @ cells[evens:]
        del cells
        keys.sort(axis=1)
        keys = keys.ravel()
        zones = keys & key_type.type((1 << shift) - 1)
        keys >>= shift
        pair_weights = weights[cohorts] ** 2
        upper = grams.ravel()
        # each half's entries in turn, so a hit array holds one half's pairs
        for parity, (first, last) in enumerate(((0, evens * size), (evens * size, keys.size))):
            hit = np.flatnonzero(keys[first + 1 : last] == keys[first : last - 1]) + first
            d = 1
            while hit.size:
                scatter = zones[hit].astype(np.intp)
                scatter *= size
                scatter += zones[hit + d]
                scatter += parity * size * size  # the half's own triangle
                np.add.at(upper, scatter, pair_weights[hit // size])
                d += 1
                hit = hit[hit + d < last]
                hit = hit[keys[hit + d] == keys[hit]]

    def _lasso_with_holdout(self, gram, linear, halves):
        """Penalty picked on the even/odd split; the full fit starts from
        the mean of the two halves' fits at the chosen penalty.

        Each half is fitted pathwise (Friedman, Hastie and Tibshirani,
        J. Stat. Softw. 2010): from the largest penalty, whose fit is the
        sparsest, down to 0, each fit warm-started from the one before.
        The penalties are then scored in grid order.
        """
        lambda_max = float(np.max(linear, initial=0.0))
        if lambda_max <= 0.0:
            return nonneg_lasso(gram, linear, 0.0)
        fits, path = (None, None), []
        for rel in reversed(_LAMBDA_GRID):
            fits = tuple(
                nonneg_lasso(g_fit, l_fit, rel * lambda_max, warm)
                for (g_fit, l_fit), warm in zip(halves, fits)
            )
            path.append(fits)
        best_rel, best_score, best_fits = _LAMBDA_GRID[0], None, None
        for rel, fits in zip(_LAMBDA_GRID, reversed(path)):
            score = 0.0
            for beta, (g_out, l_out) in zip(fits, halves[::-1]):
                score += 0.5 * beta @ g_out @ beta - l_out @ beta
            if best_score is None or score < best_score - 1e-12:
                best_rel, best_score, best_fits = rel, score, fits
        start = 0.5 * (best_fits[0] + best_fits[1])
        return nonneg_lasso(gram, linear, best_rel * lambda_max, start)

    def decode(self, stats: Stats) -> FrequencyEstimate:
        """The fit's estimate, computed on one BLAS thread
        (``one_blas_thread``), so it does not depend on the host's core
        count."""
        with one_blas_thread():
            halves = self._normal_equations(stats)
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
