"""Plain references for the RAPPOR aggregator.

``bincount_reduce`` sums the bits with one flat ``bincount`` keyed by
(cohort, bit), the reduction used before byte-lane sums over
cohort-sorted rows. ``cd_nonneg_lasso`` is cyclic coordinate descent from
zero, the solver the decoder used before exact support solves;
``loop_normal_equations`` builds the Gram matrix with one m x L comparison
per zone. All three are slow and plain, and the tests hold the array
forms to them.

``capped_holdout_fit`` is the decoder's fit as it was before support
exchanges ran to their fixed point: at most four exchanges per support
solve, then coordinate-descent sweeps, and each half's penalty path
fitted in ascending grid order. Its fits are certified by the same
stopping rule, so the tests hold the decoder's estimates to it bit for
bit.
"""
from typing import Optional

import numpy as np
from zoneldp.oracles.rappor import (
    _LAMBDA_GRID,
    _LASSO_SWEEPS,
    _PIVOT_RTOL,
    _cd_converged,
    _cd_sweep,
)

# the stopping tolerance of the decoder's descent, and a sweep cap far
# beyond what any test system needs
_LASSO_TOL = 1e-12
_MAX_SWEEPS = 100_000


def bincount_reduce(cohort: np.ndarray, bits: np.ndarray, m: int):
    """Per-(cohort, bit) sums and reports per cohort, both int64, from one
    bincount over float weights; bit sums are exact integers in float64."""
    k = bits.shape[1]
    keys = (np.asarray(cohort)[:, None] * k + np.arange(k)).ravel()
    sums = np.bincount(keys, weights=np.asarray(bits, dtype=np.float64).ravel(), minlength=m * k)
    return sums.astype(np.int64).reshape(m, k), np.bincount(cohort, minlength=m)


def cd_nonneg_lasso(gram: np.ndarray, linear: np.ndarray, penalty: float) -> np.ndarray:
    """Minimize 0.5 b'Gb - l'b + penalty*sum(b) over b >= 0.

    Cyclic coordinate descent with closed-form coordinate updates, run
    until no coordinate moves by more than the tolerance relative to the
    largest; deterministic for fixed inputs. Coordinates with zero
    curvature are pinned at zero. RuntimeError if the stopping rule does
    not hold within ``_MAX_SWEEPS`` sweeps, so a reference that has not
    converged is never compared against.
    """
    size = linear.size
    beta = np.zeros(size)
    diag = np.diag(gram)
    active = diag > 0
    for _ in range(_MAX_SWEEPS):
        delta = 0.0
        for v in range(size):
            if not active[v]:
                continue
            residual = linear[v] - penalty - (gram[v] @ beta - diag[v] * beta[v])
            new = max(0.0, residual / diag[v])
            delta = max(delta, abs(new - beta[v]))
            beta[v] = new
        if delta <= _LASSO_TOL * (1.0 + float(np.abs(beta).max())):
            return beta
    raise RuntimeError(f"coordinate descent did not converge in {_MAX_SWEEPS} sweeps")


def loop_normal_equations(targets, weights, debiased, l_zones):
    """Gram matrix and linear term with one comparison pass per zone."""
    squared = weights**2
    gram = np.zeros((l_zones, l_zones))
    for u in range(l_zones):
        same = targets == targets[:, u][:, None]  # cohorts x L
        gram[u] = squared @ same
    rows = np.arange(targets.shape[0])[:, None]
    linear = weights @ debiased[rows, targets]
    return gram, linear


# support exchanges tried per exact solve in the capped fit
_EXCHANGES = 4


def capped_holdout_fit(gram, linear, halves) -> np.ndarray:
    """Penalty picked on the even/odd split, each half's fits chained
    by warm starts along the grid; the full fit starts from the mean
    of the two halves' fits at the chosen penalty."""
    lambda_max = float(np.max(linear, initial=0.0))
    if lambda_max <= 0.0:
        return capped_nonneg_lasso(gram, linear, 0.0)
    best_rel, best_score, best_fits = _LAMBDA_GRID[0], None, None
    fits = (None, None)
    for rel in _LAMBDA_GRID:
        penalty = rel * lambda_max
        fits = tuple(
            capped_nonneg_lasso(g_fit, l_fit, penalty, warm)
            for (g_fit, l_fit), warm in zip(halves, fits)
        )
        score = 0.0
        for beta, (g_out, l_out) in zip(fits, halves[::-1]):
            score += 0.5 * beta @ g_out @ beta - l_out @ beta
        if best_score is None or score < best_score - 1e-12:
            best_rel, best_score, best_fits = rel, score, fits
    start = 0.5 * (best_fits[0] + best_fits[1])
    return capped_nonneg_lasso(gram, linear, best_rel * lambda_max, start)


def capped_nonneg_lasso(gram, linear, penalty, start=None) -> np.ndarray:
    """``nonneg_lasso`` with ``_EXCHANGES`` exchanges per support solve."""
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
            found = _capped_support_solve(gram, target, live, support)
            if found is not None and _cd_converged(gram, target, diag, live, found):
                return found
        if _cd_sweep(gram, target, diag, live, beta) <= _LASSO_TOL * (
            1.0 + float(np.abs(beta).max(initial=0.0))
        ):
            break
    return beta


def _capped_support_solve(gram, target, live, support) -> Optional[np.ndarray]:
    """Exact minimizer on a support reached by at most ``_EXCHANGES``
    exchanges; None when every support tried was collinear or gave a
    nonpositive coordinate."""
    candidate = None
    for _ in range(_EXCHANGES):
        index = np.flatnonzero(support)
        solution = target[index]
        if index.size:
            matrix = gram[index[:, None], index]
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
        grow = live & ~support & (target - gram[:, index] @ solution > 0)
        if not grow.any():
            break
        support = support | grow
    return candidate
