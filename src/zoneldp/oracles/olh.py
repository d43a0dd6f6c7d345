"""Local hashing with an optimized report domain.

Each user draws a private hash function (a 64-bit seed), hashes their zone
into g buckets, and randomizes the bucket: keep with probability
e^eps / (e^eps + g - 1), otherwise report one of the other g - 1 buckets
uniformly. The seed travels with the report, so the aggregator can replay
every user's hash over all zones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from ..domain import FrequencyEstimate
from .base import FrequencyOracle, OlhReport, PerturbProbabilities, estimate_frequency
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


@dataclass(frozen=True)
class OlhBatch:
    seeds: np.ndarray  # uint64, one hash seed per user
    values: np.ndarray  # int64 buckets in [0, g)

    @property
    def n_reports(self) -> int:
        return int(self.seeds.size)

    def reports(self) -> list:
        return [
            OlhReport(hash_seed=s, value=v)
            for s, v in zip(self.seeds.tolist(), self.values.tolist())
        ]


class OptimizedLocalHashing(FrequencyOracle):
    name: ClassVar[str] = "OLH"

    def __init__(self, l_zones: int, epsilon: float):
        super().__init__(l_zones, epsilon)
        self.g = domain_size(epsilon)
        e = math.exp(epsilon)
        self._p_keep = e / (e + self.g - 1.0)

    def probabilities(self) -> PerturbProbabilities:
        return probabilities(self.epsilon)

    def perturb_batch(self, zones, rng: np.random.Generator) -> OlhBatch:
        zones = self._check_zones(zones)
        n = zones.size
        seeds = rng.integers(0, _SEED_BOUND, size=n, dtype=np.uint64)
        true_buckets = hash_bucket_array(seeds, zones, self.g)
        keep = rng.random(n) < self._p_keep
        others = rng.integers(0, self.g - 1, size=n)
        others = others + (others >= true_buckets)
        values = np.where(keep, true_buckets, others)
        return OlhBatch(seeds=seeds, values=values.astype(np.int64))

    def _as_batch(self, reports: Union[Sequence[OlhReport], OlhBatch]) -> OlhBatch:
        if isinstance(reports, OlhBatch):
            return reports
        seeds = np.array([r.hash_seed for r in reports], dtype=np.uint64)
        values = np.array([r.value for r in reports], dtype=np.int64)
        return OlhBatch(seeds=seeds, values=values)

    def aggregate(self, reports) -> FrequencyEstimate:
        batch = self._as_batch(reports)
        n = batch.n_reports
        if n == 0:
            return FrequencyEstimate.from_raw(np.zeros(self.l_zones), 0)
        if batch.values.size and (
            batch.values.min() < 0 or batch.values.max() >= self.g
        ):
            raise ValueError(f"report value out of range [0, {self.g})")
        # replay every user's hash over all zones: bucket matrix is n x L
        zone_ids = np.arange(self.l_zones, dtype=np.int64)
        buckets = hash_bucket_array(batch.seeds[:, None], zone_ids[None, :], self.g)
        support = buckets == batch.values[:, None]
        counts = support.sum(axis=0)
        return estimate_frequency(counts, n, self.probabilities())
