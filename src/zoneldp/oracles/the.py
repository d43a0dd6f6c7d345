"""Histogram encoding with additive noise and server-side thresholding.

The zone is one-hot encoded as a real vector and independent Laplace noise
of scale 2/eps is added to every component (the one-hot vector changes in
two components when the zone changes, so scale 2/eps gives budget eps).
The aggregator counts, per zone, the reports whose component clears a
threshold theta; the clearing probabilities follow from the Laplace CDF:
p = 1 - F(theta - 1) for the true zone, q = 1 - F(theta) elsewhere. Each
noise value is one double of ``Generator.random``, one word of the stream.
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


def laplace_noise(values: np.ndarray, scale: float) -> None:
    """Turns uniforms u = k * 2^-53 in [0, 1), as ``Generator.random``
    gives them, into Laplace noise of the given scale, in place.

    v = 2u - 1 + 2^-53 = (2k + 1 - 2^53) * 2^-53 is exact, an odd multiple
    of 2^-53 in (-1, 1): |v| is uniform on those in (0, 1), never 0 or 1,
    and independent of v's sign. The noise is -sgn(v) * scale * ln |v|,
    finite and at most 53 ln 2 * scale in magnitude.
    """
    values *= 2.0
    values -= 1.0 - 2.0**-53
    negative = np.signbit(values)
    np.abs(values, out=values)
    np.log(values, out=values)
    values *= scale
    sign = negative.view(np.int8)
    np.negative(sign, out=sign)  # -1 where v < 0, else 0, read as +
    np.copysign(values, sign, out=values)


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
            block = values[start:stop]
            gen.random(out=block)
            laplace_noise(block, self.scale)

        # one double of rng.random per cell, in row order, for any core count
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
