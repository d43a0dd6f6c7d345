"""Local hashing with an optimized report domain.

Each user draws a private hash function (a 64-bit seed), hashes their zone
into g buckets, and randomizes the bucket by ``k_rr``: keep with
probability e^eps / (e^eps + g - 1), otherwise report one of the other
g - 1 buckets uniformly. The seed travels with the report, so the
aggregator can replay every user's hash over all zones.
"""
from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from .base import (
    _SMALL_BLOCK_CELLS,
    FrequencyOracle,
    OlhBatch,
    PerturbProbabilities,
    Stats,
    k_rr,
    run_blocks,
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
    batch_type = OlhBatch

    def __init__(self, l_zones: int, epsilon: float):
        super().__init__(l_zones, epsilon)
        self.g = domain_size(epsilon)
        self._probs = probabilities(epsilon)

    def perturb_batch(self, zones, rng: np.random.Generator) -> OlhBatch:
        zones = self._check_zones(zones)
        seeds = rng.integers(0, _SEED_BOUND, size=zones.size, dtype=np.uint64)
        true_buckets = hash_bucket_array(seeds, zones, self.g)
        values = k_rr(true_buckets, self.g, self._probs.p, rng)
        return OlhBatch(hash_seed=seeds, value=values)

    def _bounds(self) -> dict:
        return {"value": self.g}

    def _count(self, batch: OlhBatch) -> Stats:
        n = batch.n_reports
        zone_ids = np.arange(self.l_zones, dtype=np.uint64)

        def replay(start, stop, _):
            """Support counts of one block of users: each user's hash over
            all zones, compared with the reported bucket."""
            seeds = batch.hash_seed[start:stop, None]
            buckets = hash_bucket_array(seeds, zone_ids, self.g)
            return np.count_nonzero(buckets == batch.value[start:stop, None], axis=0)

        # integer counts: the block sums are the same in any order
        blocks = run_blocks(n, self.l_zones, replay, cells=_SMALL_BLOCK_CELLS)
        return self._stats(n, np.sum(blocks, axis=0, dtype=np.int64))

    aggregate = FrequencyOracle.aggregate
