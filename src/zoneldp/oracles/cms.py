"""Hashed one-hot sketching with per-bit randomized response.

Each user picks one of k public hash functions, one-hot encodes the hashed
zone into an m-column row, and randomizes every bit independently with
budget eps/2 per bit. A zone change moves exactly two bits, so the whole
report is eps-private. This client step is ``one_hot_rr``, shared
with OUE and RAPPOR; RAPPOR's reports differ only in calling the row a
cohort.

The aggregator rebuilds a k x m sketch of debiased row sums and reads each
zone's estimate through the same hash functions, with a m/(m-1)
correction removing the uniform collision floor.

Estimates are unbiased in expectation over the hash family; a single fixed
family carries a small collision bias, which is why the simulator redraws
the family seed each round.
"""
from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from ..domain import FrequencyEstimate
from ..errors import ParamMismatch
from .base import CmsBatch, FrequencyOracle, PerturbProbabilities, one_hot_rr
from .hashing import family_member_seed, hash_bucket_array


def probabilities(epsilon: float) -> PerturbProbabilities:
    """Per-bit keep/flip pair at budget eps/2."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    half = math.exp(epsilon / 2.0)
    return PerturbProbabilities(p=half / (half + 1.0), q=1.0 / (half + 1.0))


class CountMeanSketch(FrequencyOracle):
    name: ClassVar[str] = "CMS"

    def __init__(
        self,
        l_zones: int,
        epsilon: float,
        k: int = 128,
        m: int = 1024,
        hash_seed: int = 0,
    ):
        super().__init__(l_zones, epsilon)
        if k < 1:
            raise ValueError("k must be >= 1")
        if m < 2:
            raise ValueError("m must be >= 2 (the collision correction divides by m - 1)")
        self.k = int(k)
        self.m = int(m)
        self.hash_seed = int(hash_seed)
        self._probs = probabilities(epsilon)
        seeds = family_member_seed(self.hash_seed, np.arange(self.k))
        zone_ids = np.arange(self.l_zones, dtype=np.uint64)
        # k x L table of hashed positions, shared by clients and aggregator
        self.targets = hash_bucket_array(seeds[:, None], zone_ids[None, :], self.m)

    def probabilities(self) -> PerturbProbabilities:
        return self._probs

    def perturb_batch(self, zones, rng: np.random.Generator) -> CmsBatch:
        zones = self._check_zones(zones)
        indices = rng.integers(0, self.k, size=zones.size)
        bits = one_hot_rr(self.targets[indices, zones], self.m, self._probs, rng)
        return CmsBatch(hash_index=indices.astype(np.int64), bits=bits)

    def aggregate(self, reports) -> FrequencyEstimate:
        batch = CmsBatch.of(reports)
        n = batch.n_reports
        if n == 0:
            return FrequencyEstimate.from_raw(np.zeros(self.l_zones), 0)
        if batch.bits.shape[1] != self.m:
            raise ParamMismatch(
                f"report width {batch.bits.shape[1]} != sketch width {self.m}"
            )
        if batch.hash_index.min() < 0 or batch.hash_index.max() >= self.k:
            raise ParamMismatch(f"hash index out of range [0, {self.k})")
        p, q = self._probs.p, self._probs.q
        row_counts = np.bincount(batch.hash_index, minlength=self.k)
        bit_sums = np.zeros((self.k, self.m), dtype=np.int64)
        for j in range(self.k):
            mask = batch.hash_index == j
            if mask.any():
                bit_sums[j] = batch.bits[mask].sum(axis=0, dtype=np.int64)
        debiased = (bit_sums - row_counts[:, None] * q) / (p - q)
        support = debiased[np.arange(self.k)[:, None], self.targets].sum(axis=0)
        raw = (self.m / (self.m - 1.0)) * (support - n / self.m)
        return FrequencyEstimate.from_raw(raw, n)
