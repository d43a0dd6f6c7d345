"""Unary encoding with asymmetric bit probabilities.

The zone is one-hot encoded over L bits and every bit is reported
independently: a set bit stays 1 with probability 1/2, a clear bit turns 1
with probability 1/(e^eps + 1). Splitting the budget this way minimizes the
estimator variance of the unary family. The client step is ``one_hot_rr``
with the zone itself as the bit position, so the mechanism's pair is this
closed form rounded onto the 2^-16 grid of its 16-bit lanes: q is never
below 2^-16, so past eps = ln(2^16 - 1) ~ 11.09 a clear bit still turns 1
with probability 2^-16, and below eps of about 2^-14 the grid cannot keep
p above q. THE is this mechanism with another closed-form pair.
"""
from __future__ import annotations

import math
from typing import ClassVar, Optional

import numpy as np

from .base import (
    FrequencyOracle,
    OueBatch,
    PerturbProbabilities,
    Stats,
    column_sums,
    lane_probabilities,
    one_hot_rr,
)


def probabilities(epsilon: float) -> PerturbProbabilities:
    """The closed-form pair (1/2, 1/(e^eps + 1)); the mechanism holds it
    rounded onto the 2^-16 grid of ``one_hot_rr``."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return PerturbProbabilities(p=0.5, q=1.0 / (math.exp(epsilon) + 1.0))


class OptimizedUnaryEncoding(FrequencyOracle):
    name: ClassVar[str] = "OUE"
    batch_type = OueBatch

    def __init__(
        self, l_zones: int, epsilon: float, probs: Optional[PerturbProbabilities] = None
    ):
        """``probs`` is the closed-form pair the client rounds onto the
        grid, OUE's own unless given."""
        super().__init__(l_zones, epsilon)
        self._probs = lane_probabilities(probabilities(epsilon) if probs is None else probs)
        self._width = self.l_zones

    def perturb_batch(self, zones, rng: np.random.Generator) -> OueBatch:
        zones = self._check_zones(zones)
        return OueBatch(bits=one_hot_rr(zones, self.l_zones, self._probs, rng))

    def _count(self, batch: OueBatch) -> Stats:
        return self._stats(batch.n_reports, column_sums(batch.bits))

    aggregate = FrequencyOracle.aggregate
