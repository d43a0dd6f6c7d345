"""Local hashing with an optimized report domain.

Each user draws a private hash function (a 64-bit seed), hashes their zone
into g buckets, and randomizes the bucket: keep with probability
e^eps / (e^eps + g - 1), otherwise report one of the other g - 1 buckets
uniformly. The seed travels with the report, so the aggregator can replay
every user's hash over all zones.
"""
from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from ..domain import FrequencyEstimate
from ..errors import ParamMismatch
from .base import (
    _BLOCK_CELLS,
    FrequencyOracle,
    OlhBatch,
    PerturbProbabilities,
    estimate_frequency,
)
from .hashing import hash_bucket_array

# Report seeds stay below 2**63 so they survive JSON round-trips as plain ints.
_SEED_BOUND = 1 << 63

# Ceiling on the report domain. The privacy ratio is exactly e^eps for ANY
# g (only utility depends on it), and beyond 2^31 buckets the keep
# probability is within 5e-13 of 1, so the cap is statistically invisible
# while keeping bucket draws inside integer sampling range.
_G_CAP = 1 << 31


def domain_size(epsilon: float) -> int:
    """Report domain g = ceil(e^eps + 1), floored at 2, capped at 2^31.

    The small subtraction keeps float noise in e^eps from bumping the
    ceiling when e^eps + 1 is an exact integer.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if epsilon >= 22.0:  # e^22 + 1 already exceeds the cap
        return _G_CAP
    return min(_G_CAP, max(2, math.ceil(math.exp(epsilon) + 1.0 - 1e-9)))


def probabilities(epsilon: float) -> PerturbProbabilities:
    """Support probabilities: p = e^eps/(e^eps+g-1); q = 1/g.

    q is the chance a report supports a WRONG zone: the user's hash sends
    that zone to any given bucket uniformly, so averaged over seeds the
    reported bucket matches it with probability 1/g regardless of which
    branch the perturbation took.
    """
    g = domain_size(epsilon)
    e = math.exp(epsilon)
    return PerturbProbabilities(p=e / (e + g - 1.0), q=1.0 / g)


class OptimizedLocalHashing(FrequencyOracle):
    name: ClassVar[str] = "OLH"

    def __init__(self, l_zones: int, epsilon: float):
        super().__init__(l_zones, epsilon)
        self.g = domain_size(epsilon)
        self._probs = probabilities(epsilon)

    def perturb_batch(self, zones, rng: np.random.Generator) -> OlhBatch:
        zones = self._check_zones(zones)
        n = zones.size
        seeds = rng.integers(0, _SEED_BOUND, size=n, dtype=np.uint64)
        true_buckets = hash_bucket_array(seeds, zones, self.g)
        keep = rng.random(n) < self._probs.p
        others = rng.integers(0, self.g - 1, size=n)
        others = others + (others >= true_buckets)
        values = np.where(keep, true_buckets, others)
        return OlhBatch(hash_seed=seeds, value=values.astype(np.int64))

    def aggregate(self, reports) -> FrequencyEstimate:
        batch = OlhBatch.of(reports)
        n = batch.n_reports
        if n == 0:
            return FrequencyEstimate.from_raw(np.zeros(self.l_zones), 0)
        if batch.value.min() < 0 or batch.value.max() >= self.g:
            raise ParamMismatch(f"report value out of range [0, {self.g})")
        # replay every user's hash over all zones, one bounded block of
        # users at a time; the support counts are integers
        zone_ids = np.arange(self.l_zones, dtype=np.int64)
        step = max(1, _BLOCK_CELLS // self.l_zones)
        counts = np.zeros(self.l_zones, dtype=np.int64)
        for start in range(0, n, step):
            block = slice(start, start + step)
            buckets = hash_bucket_array(batch.hash_seed[block, None], zone_ids, self.g)
            counts += (buckets == batch.value[block, None]).sum(axis=0)
        return estimate_frequency(counts, n, self._probs)
