"""Plain references for the RAPPOR aggregator.

``bincount_reduce`` sums the bits with one flat ``bincount`` keyed by
(cohort, bit), the reduction used before byte-lane sums over
cohort-sorted rows. ``cd_nonneg_lasso`` is cyclic coordinate descent from
zero, the solver the decoder used before exact support solves;
``loop_normal_equations`` builds the Gram matrix with one m x L comparison
per zone. All three are slow and plain, and the tests hold the array
forms to them.
"""
import numpy as np

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
