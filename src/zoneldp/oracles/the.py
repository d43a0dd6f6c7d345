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

from ..errors import ParamMismatch
from .base import (
    _SMALL_BLOCK_CELLS,
    FrequencyOracle,
    PerturbProbabilities,
    Stats,
    TheBatch,
    column_sums,
    run_blocks,
)


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
        self._row_bytes = 8 * self.l_zones  # float64 values

    def perturb_batch(self, zones, rng: np.random.Generator) -> TheBatch:
        zones = self._check_zones(zones)
        n = zones.size
        values = np.empty((n, self.l_zones))

        def fill(start, stop, gen):
            values[start:stop] = gen.laplace(0.0, self.scale, (stop - start, self.l_zones))

        # equal to one rng.laplace(0.0, scale, (n, L)) draw for any core count
        run_blocks(n, self.l_zones, fill, rng, cells=_SMALL_BLOCK_CELLS)
        values[np.arange(n), zones] += 1.0
        return TheBatch(values=values)

    def reduce(self, reports) -> Stats:
        batch = TheBatch.of(reports)
        if batch.n_reports == 0:
            return self.empty_stats()
        if batch.values.shape[1] != self.l_zones:
            raise ParamMismatch(
                f"report width {batch.values.shape[1]} != l_zones {self.l_zones}"
            )
        cleared = (batch.values >= self.theta).view(np.uint8)
        return Stats(self.name, batch.n_reports, column_sums(cleared))

    aggregate = FrequencyOracle.aggregate
