"""Histogram encoding with additive noise and server-side thresholding.

The zone is one-hot encoded as a real vector and independent Laplace noise
of scale 2/eps is added to every component (the one-hot vector changes in
two components when the zone changes, so scale 2/eps gives budget eps).
The aggregator counts, per zone, the reports whose component clears a
threshold theta; the clearing probabilities follow from the Laplace CDF:
p = 1 - F(theta - 1) for the true zone, q = 1 - F(theta) elsewhere.
"""
from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from ..domain import FrequencyEstimate
from ..errors import ParamMismatch
from .base import FrequencyOracle, PerturbProbabilities, TheBatch, estimate_frequency


def laplace_cdf(x: float, scale: float) -> float:
    """CDF of the zero-centered Laplace distribution with the given scale."""
    if x < 0:
        return 0.5 * math.exp(x / scale)
    return 1.0 - 0.5 * math.exp(-x / scale)


def probabilities(epsilon: float, theta: float = 1.0) -> PerturbProbabilities:
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    scale = 2.0 / epsilon
    p = 1.0 - laplace_cdf(theta - 1.0, scale)
    q = 1.0 - laplace_cdf(theta, scale)
    # p > q holds for every finite theta because the CDF is strictly increasing
    return PerturbProbabilities(p=p, q=q)


class ThresholdHistogramEncoding(FrequencyOracle):
    name: ClassVar[str] = "THE"

    def __init__(self, l_zones: int, epsilon: float, theta: float = 1.0):
        super().__init__(l_zones, epsilon)
        self.theta = float(theta)
        self.scale = 2.0 / self.epsilon
        self._probs = probabilities(self.epsilon, self.theta)

    def perturb_batch(self, zones, rng: np.random.Generator) -> TheBatch:
        zones = self._check_zones(zones)
        n = zones.size
        values = rng.laplace(0.0, self.scale, (n, self.l_zones))
        values[np.arange(n), zones] += 1.0
        return TheBatch(values=values)

    def aggregate(self, reports) -> FrequencyEstimate:
        batch = TheBatch.of(reports)
        n = batch.n_reports
        if n == 0:
            return FrequencyEstimate.from_raw(np.zeros(self.l_zones), 0)
        if batch.values.shape[1] != self.l_zones:
            raise ParamMismatch(
                f"report width {batch.values.shape[1]} != l_zones {self.l_zones}"
            )
        counts = (batch.values >= self.theta).sum(axis=0, dtype=np.int64)
        return estimate_frequency(counts, n, self._probs)
