"""Count-mean sketch: the hashed sketch read back through its hash functions.

Each user picks one of k public hash functions, one-hot encodes the hashed
zone into an m-column row, and randomizes every bit independently with
budget eps/2 per bit: the client of ``HashedSketch``, with k rows of
width m. Its per-bit pair is held on the 2^-16 grid of ``one_hot_rr``'s
16-bit lanes, so a bit flips with probability at least 2^-16 at any
budget (the per-bit budget stops growing past eps = 2 ln(2^16 - 1) ~ 22.2).
RAPPOR is the same sketch with the two sizes named the other way round
and a different decoder.

The aggregator reads each zone's k bit sums through the same hash
functions, debiases their total once, and removes the uniform collision
floor with a m/(m-1) correction.

Estimates are unbiased in expectation over the hash family; a single fixed
family carries a small collision bias, which is why the simulator redraws
the family seed each round.
"""
from __future__ import annotations

from typing import ClassVar

import numpy as np

from ..domain import FrequencyEstimate
from .base import CmsBatch, FrequencyOracle, HashedSketch, Stats, column_sums


class CountMeanSketch(HashedSketch):
    name: ClassVar[str] = "CMS"

    def __init__(
        self,
        l_zones: int,
        epsilon: float,
        k: int = 128,
        m: int = 1024,
        hash_seed: int = 0,
    ):
        if m < 2:
            raise ValueError("m must be >= 2 (the collision correction divides by m - 1)")
        super().__init__(l_zones, epsilon, rows=k, width=m, hash_seed=hash_seed)
        self.k = int(k)
        self.m = int(m)

    def perturb_batch(self, zones, rng: np.random.Generator, rows=None) -> CmsBatch:
        """``rows``: each user's hash index, drawn from ``rng`` when None."""
        return CmsBatch(*self._perturb_rows(zones, rng, rows))

    def reduce(self, reports) -> Stats:
        """Reports sorted by hash index, then each index's contiguous run
        of bit rows summed by ``column_sums``."""
        batch = CmsBatch.of(reports)
        n = batch.n_reports
        if n == 0:
            return self.empty_stats()
        row_sizes = self._row_sizes(batch)
        # a stable radix sort on the narrowest type that holds k - 1
        order = np.argsort(
            batch.hash_index.astype(np.min_scalar_type(self.k - 1)), kind="stable"
        )
        bits = batch.bits[order]
        ends = np.cumsum(row_sizes)
        bit_sums = np.zeros((self.k, self.m), dtype=np.int64)
        for j in np.flatnonzero(row_sizes).tolist():
            bit_sums[j] = column_sums(bits[ends[j] - row_sizes[j]:ends[j]])
        return Stats(self.name, n, bit_sums, row_sizes, self.hash_seed)

    def decode(self, stats: Stats) -> FrequencyEstimate:
        """Only the k x L sums a zone hashes to are read: their integer
        total over the k rows is debiased once, since the row sizes add
        up to n."""
        hits = stats.counts[np.arange(self.k)[:, None], self.targets].sum(axis=0)
        n, p, q = stats.n_reports, self._probs.p, self._probs.q
        support = (hits - n * q) / (p - q)
        raw = (self.m / (self.m - 1.0)) * (support - n / self.m)
        return FrequencyEstimate.from_raw(raw, n)

    aggregate = FrequencyOracle.aggregate
