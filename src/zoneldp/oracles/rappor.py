"""Cohort-hashed bit vectors with permanent randomized response and a
regularized least-squares decoder.

Users are split uniformly into m cohorts; cohort c hashes zones into k bit
positions with its own public hash function, so each zone lights one bit
per cohort (different bits in different cohorts, which is what makes the
decoding well-posed). The bit vector is then reported with flip parameter
f = 2/(e^{eps/2} + 1): a set bit stays 1 with probability 1 - f/2, a clear
bit turns 1 with probability f/2. One report per user, so only this
permanent randomization round applies. The client step is the same
``one_hot_rr`` that CMS and OUE use; only the decoder differs.

Decoding debiases each cohort's bit counts and fits per-zone counts by
nonnegative L1-regularized least squares (penalty weight picked on an
even/odd cohort split; the full system is the sum of the two halves).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from ..domain import FrequencyEstimate
from ..errors import ParamMismatch, SingularFitWarning
from .base import FrequencyOracle, PerturbProbabilities, RapporReport, one_hot_rr
from .hashing import family_member_seed, hash_bucket_array

# relative penalty grid; 0 keeps the unpenalized fit in the running
_LAMBDA_GRID = (0.0, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
# coordinate-descent budget: at most this many sweeps, stopping once no
# coordinate moves by more than this tolerance relative to the largest
_LASSO_SWEEPS = 400
_LASSO_TOL = 1e-12


def flip_parameter(epsilon: float) -> float:
    """f = 2/(e^{eps/2} + 1); the two moved bits compose to budget eps."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return 2.0 / (math.exp(epsilon / 2.0) + 1.0)


def probabilities(epsilon: float) -> PerturbProbabilities:
    """Per-bit pair (1 - f/2, f/2)."""
    f = flip_parameter(epsilon)
    return PerturbProbabilities(p=1.0 - f / 2.0, q=f / 2.0)


def nonneg_lasso(gram: np.ndarray, linear: np.ndarray, penalty: float) -> np.ndarray:
    """Minimize 0.5 b'Gb - l'b + penalty*sum(b) over b >= 0.

    Cyclic coordinate descent with closed-form coordinate updates;
    deterministic for fixed inputs. Coordinates with zero curvature are
    pinned at zero.
    """
    size = linear.size
    beta = np.zeros(size)
    diag = np.diag(gram)
    active = diag > 0
    for _ in range(_LASSO_SWEEPS):
        delta = 0.0
        for v in range(size):
            if not active[v]:
                continue
            residual = linear[v] - penalty - (gram[v] @ beta - diag[v] * beta[v])
            new = max(0.0, residual / diag[v])
            delta = max(delta, abs(new - beta[v]))
            beta[v] = new
        if delta <= _LASSO_TOL * (1.0 + float(np.abs(beta).max())):
            break
    return beta


@dataclass(frozen=True)
class RapporBatch:
    cohorts: np.ndarray  # int64 in [0, m)
    bits: np.ndarray  # n x k uint8

    @property
    def n_reports(self) -> int:
        return int(self.cohorts.size)

    def reports(self) -> list:
        return [
            RapporReport(cohort=c, bits=tuple(row))
            for c, row in zip(self.cohorts.tolist(), self.bits.tolist())
        ]


class Rappor(FrequencyOracle):
    name: ClassVar[str] = "RAPPOR"

    def __init__(
        self,
        l_zones: int,
        epsilon: float,
        k: int = 64,
        m: int = 1024,
        hash_seed: int = 0,
    ):
        super().__init__(l_zones, epsilon)
        if k < 1 or m < 1:
            raise ValueError("k and m must be >= 1")
        self.k = int(k)
        self.m = int(m)
        self.hash_seed = int(hash_seed)
        self._probs = probabilities(epsilon)
        seeds = family_member_seed(self.hash_seed, np.arange(self.m))
        zone_ids = np.arange(self.l_zones, dtype=np.uint64)
        # m x L table: the bit position zone v lights in cohort c
        self.targets = hash_bucket_array(seeds[:, None], zone_ids[None, :], self.k)

    def probabilities(self) -> PerturbProbabilities:
        return self._probs

    def perturb_batch(self, zones, rng: np.random.Generator) -> RapporBatch:
        zones = self._check_zones(zones)
        cohorts = rng.integers(0, self.m, size=zones.size)
        bits = one_hot_rr(self.targets[cohorts, zones], self.k, self._probs, rng)
        return RapporBatch(cohorts=cohorts.astype(np.int64), bits=bits)

    def _as_batch(
        self, reports: Union[Sequence[RapporReport], RapporBatch]
    ) -> RapporBatch:
        if isinstance(reports, RapporBatch):
            return reports
        if not len(reports):
            return RapporBatch(
                cohorts=np.zeros(0, dtype=np.int64),
                bits=np.zeros((0, self.k), dtype=np.uint8),
            )
        cohorts = np.array([r.cohort for r in reports], dtype=np.int64)
        bits = np.array([r.bits for r in reports], dtype=np.uint8)
        return RapporBatch(cohorts=cohorts, bits=bits)

    def _normal_equations(self, targets, weights, debiased):
        """Gram matrix and linear term of the weighted least-squares fit
        over the cohorts whose rows are given.

        Model: debiased[c] ~ w_c * (one-hot design of cohort c) @ counts,
        w_c = n_c / n. Assembled from the target table without ever
        materializing the (m*k) x L design matrix.
        """
        squared = weights**2
        gram = np.zeros((self.l_zones, self.l_zones))
        for u in range(self.l_zones):
            same = targets == targets[:, u][:, None]  # cohorts x L
            gram[u] = squared @ same
        rows = np.arange(targets.shape[0])[:, None]
        linear = weights @ debiased[rows, targets]
        return gram, linear

    def _lasso_with_holdout(self, gram, linear, halves):
        lambda_max = float(np.max(linear, initial=0.0))
        if lambda_max <= 0.0:
            return nonneg_lasso(gram, linear, 0.0)
        (g_even, l_even), (g_odd, l_odd) = halves
        best_rel, best_score = _LAMBDA_GRID[0], None
        for rel in _LAMBDA_GRID:
            penalty = rel * lambda_max
            score = 0.0
            for g_fit, l_fit, g_out, l_out in (
                (g_even, l_even, g_odd, l_odd),
                (g_odd, l_odd, g_even, l_even),
            ):
                beta = nonneg_lasso(g_fit, l_fit, penalty)
                score += 0.5 * beta @ g_out @ beta - l_out @ beta
            if best_score is None or score < best_score - 1e-12:
                best_rel, best_score = rel, score
        return nonneg_lasso(gram, linear, best_rel * lambda_max)

    def aggregate(self, reports) -> FrequencyEstimate:
        batch = self._as_batch(reports)
        n = batch.n_reports
        if n == 0:
            return FrequencyEstimate.from_raw(np.zeros(self.l_zones), 0)
        if batch.bits.shape[1] != self.k:
            raise ParamMismatch(
                f"report width {batch.bits.shape[1]} != bit length {self.k}"
            )
        if batch.cohorts.min() < 0 or batch.cohorts.max() >= self.m:
            raise ParamMismatch(f"cohort out of range [0, {self.m})")
        p, q = self._probs.p, self._probs.q
        cohort_sizes = np.bincount(batch.cohorts, minlength=self.m).astype(np.float64)
        # per-(cohort, bit) sums via one flat bincount; bit sums are exact
        # integers in float64, so the result is order-independent
        flat = (batch.cohorts[:, None] * self.k + np.arange(self.k)).ravel()
        bit_sums = np.bincount(
            flat, weights=batch.bits.ravel().astype(np.float64), minlength=self.m * self.k
        ).reshape(self.m, self.k)
        debiased = (bit_sums - cohort_sizes[:, None] * q) / (p - q)
        weights = cohort_sizes / n

        halves = [
            self._normal_equations(
                self.targets[parity::2], weights[parity::2], debiased[parity::2]
            )
            for parity in (0, 1)
        ]
        (g_even, l_even), (g_odd, l_odd) = halves
        raw = self._decode(g_even + g_odd, l_even + l_odd, halves)
        return FrequencyEstimate.from_raw(raw, n)

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
