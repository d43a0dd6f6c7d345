"""Histogram encoding with additive noise, thresholded by the client.

The zone is one-hot encoded as a real vector and independent Laplace noise
of scale 2/eps is added to every component (the one-hot vector changes in
two components when the zone changes, so scale 2/eps gives budget eps).
The client reports only which components clear a threshold theta, one bit
each (Wang et al., "Locally Differentially Private Protocols for Frequency
Estimation", USENIX Security 2017): a bit is 1 with p = 1 - F(theta - 1)
on the true zone and q = 1 - F(theta) elsewhere, F the Laplace CDF. The
bits are a function of the noisy vector, so they reveal no more than it
does, and unlike its doubles they carry no low-order digits that name the
zone (Mironov, "On significance of the least significant bits for
differential privacy", CCS 2012). So THE is OUE with this pair: the same
``one_hot_rr`` client, with the pair rounded onto the 2^-16 grid, and the
same per-zone bit sums. A theta far enough out that the rounded pair
loses p > q (p rounds to 0, or q to 1) raises DegenerateProbabilities.
"""
from __future__ import annotations

import math
from typing import ClassVar

from .base import FrequencyOracle, PerturbProbabilities
from .oue import OptimizedUnaryEncoding


def laplace_cdf(x: float, scale: float) -> float:
    """CDF of the zero-centered Laplace distribution with the given scale."""
    if x < 0:
        return 0.5 * math.exp(x / scale)
    return 1.0 - 0.5 * math.exp(-x / scale)


def probabilities(epsilon: float, theta: float = 1.0) -> PerturbProbabilities:
    """The closed-form pair (1 - F(theta - 1), 1 - F(theta)); the mechanism
    holds it rounded onto the 2^-16 grid of ``one_hot_rr``."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    scale = 2.0 / epsilon
    # 1 - F(x) = F(-x): a far tail keeps its digits, so q never rounds to 0
    # on the grid while it is positive
    p = laplace_cdf(1.0 - theta, scale)
    q = laplace_cdf(-theta, scale)
    # p > q holds for every finite theta because the CDF is strictly increasing
    return PerturbProbabilities(p=p, q=q)


class ThresholdHistogramEncoding(OptimizedUnaryEncoding):
    name: ClassVar[str] = "THE"

    def __init__(self, l_zones: int, epsilon: float, theta: float = 1.0):
        super().__init__(l_zones, epsilon, probabilities(epsilon, theta))
        self.theta = float(theta)
        self.scale = 2.0 / self.epsilon

    perturb_batch = OptimizedUnaryEncoding.perturb_batch
    aggregate = FrequencyOracle.aggregate
