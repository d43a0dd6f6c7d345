"""Output checks that feed ``failed_frac``.

Per round: the estimate has L finite entries, and ``n_reports`` equals the
number of users that reached aggregation.

Per cell (the rounds of one mechanism and epsilon that share a truth):
for the five unbiased mechanisms, each zone's mean error over the cell's
T rounds must lie within ``Z_BOUND`` standard errors of zero, where the
per-round variance comes from the mechanism's closed form below. It is
exact for OUE, THE and HR, exact under the ideal-hash model for OLH, and
an upper bound for CMS. At Z = 6 a correct mechanism fails one zone test
in about 5e8, so a failure means bias or a broken estimate. RAPPOR's
lasso decoder is biased by design; its rmse must be finite and below n.

The (p, q) pairs are recomputed here from the protocols' definitions
rather than read from the library, so the checks stay valid when the
library's internals are reorganized.
"""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

Z_BOUND = 6.0
# library defaults for the sketch and threshold mechanisms
CMS_ROWS, CMS_WIDTH = 128, 1024
THE_THETA = 1.0


def _binomial_variance(p: float, q: float, n: int, n_v: np.ndarray) -> np.ndarray:
    """Var of (support_v - n q)/(p - q) with support_v ~ B(n_v, p) + B(n - n_v, q)."""
    return (n_v * p * (1 - p) + (n - n_v) * q * (1 - q)) / (p - q) ** 2


def _laplace_tail(x: float, scale: float) -> float:
    """P(Laplace(0, scale) >= x)."""
    return 0.5 * math.exp(-x / scale) if x >= 0 else 1.0 - 0.5 * math.exp(x / scale)


def round_variance(mechanism: str, epsilon: float, true_counts) -> np.ndarray:
    """Per-zone variance of one round's raw estimate (see module docstring)."""
    n_v = np.asarray(true_counts, dtype=np.float64)
    n = float(n_v.sum())
    e = math.exp(epsilon)
    if mechanism == "OUE":
        return _binomial_variance(0.5, 1.0 / (e + 1.0), n, n_v)
    if mechanism == "OLH":
        g = max(2, math.ceil(e + 1.0 - 1e-9))
        return _binomial_variance(e / (e + g - 1.0), 1.0 / g, n, n_v)
    if mechanism == "THE":
        scale = 2.0 / epsilon
        return _binomial_variance(
            _laplace_tail(THE_THETA - 1.0, scale), _laplace_tail(THE_THETA, scale), n, n_v
        )
    if mechanism == "HR":
        # each report adds +-s to every zone, s = (e+1)/(e-1), with mean 1 on
        # its own zone and 0 elsewhere
        s = (e + 1.0) / (e - 1.0)
        return n * s * s - n_v
    if mechanism == "CMS":
        half = math.exp(epsilon / 2.0)
        p, q = half / (half + 1.0), 1.0 / (half + 1.0)
        # bit noise, plus hash collisions of every other zone's users
        bits = n / (4.0 * (p - q) ** 2)
        collisions = (np.sum(n_v + n_v**2 / CMS_ROWS) - (n_v + n_v**2 / CMS_ROWS)) / CMS_WIDTH
        return (CMS_WIDTH / (CMS_WIDTH - 1.0)) ** 2 * (bits + collisions)
    raise ValueError(f"no variance for {mechanism}")


def check_round(r) -> str:
    """Empty string when the round's output is well formed, else the problem."""
    if r.error:
        return f"raised: {r.error}"
    l_zones = len(r.true_counts)
    if r.raw is None or r.raw.shape != (l_zones,):
        return f"estimate has shape {None if r.raw is None else r.raw.shape}, want ({l_zones},)"
    if not np.all(np.isfinite(r.raw)):
        return f"estimate has {int(np.sum(~np.isfinite(r.raw)))} non-finite entries"
    if r.n_reports != r.expected_reports:
        return f"n_reports {r.n_reports} != {r.expected_reports} users aggregated"
    return ""


def check_cell(cell: Sequence) -> str:
    """Empty string when the cell's error is consistent with the mechanism."""
    first = cell[0]
    truth = np.asarray(first.true_counts, dtype=np.float64)
    if any(not np.array_equal(r.true_counts, first.true_counts) for r in cell):
        return "rounds of one cell have different true counts"
    errors = np.stack([r.raw for r in cell]) - truth
    if first.mechanism == "RAPPOR":
        n = truth.sum()
        rmse = np.sqrt(np.mean(errors**2, axis=1))
        if not np.all(rmse < n):
            return f"RAPPOR rmse {float(rmse.max()):.4g} not below n={n:g}"
        return ""
    stderr = np.sqrt(round_variance(first.mechanism, first.epsilon, truth) / len(cell))
    z = np.abs(errors.mean(axis=0)) / stderr
    if np.any(z > Z_BOUND):
        zone = int(np.argmax(z))
        return (f"{first.mechanism} eps={first.epsilon:g}: zone {zone} mean error "
                f"is {float(z[zone]):.2f} standard errors from 0 (limit {Z_BOUND:g})")
    return ""


def check_pass(workload, output) -> Tuple[int, int, List[str]]:
    """(rounds attempted, rounds failed, problems) for one pass's output.

    Rounds that fail a per-round check are failed; a cell that fails its
    statistical check fails every round in it. Output that cannot be read
    at all fails the whole pass.
    """
    attempted = workload.rounds_per_pass
    try:
        rounds = workload.rounds(output)
    except Exception as exc:  # unreadable output fails every round of the pass
        return attempted, attempted, [f"output unreadable: {exc!r}"]
    problems = []
    failed = max(0, attempted - len(rounds))
    if failed:
        problems.append(f"{failed} of {attempted} rounds missing from the output")
    good = []
    for r in rounds:
        problem = check_round(r)
        if problem:
            failed += 1
            problems.append(f"{r.mechanism} eps={r.epsilon:g}: {problem}")
        else:
            good.append(r)
    for cell in workload.cells(good):
        problem = check_cell(cell)
        if problem:
            failed += len(cell)
            problems.append(problem)
    return attempted, min(failed, attempted), problems
