"""Count-mean sketch: the hashed sketch read back through its hash functions.

Each user picks one of k public hash functions, one-hot encodes the hashed
zone into an m-column row, and randomizes every bit independently with
budget eps/2 per bit: the client of ``HashedSketch``, with k rows of
width m. Its per-bit pair is held on the 2^-16 grid of ``one_hot_rr``'s
16-bit lanes, so a bit flips with probability at least 2^-16 at any
budget (the per-bit budget stops growing past eps = 2 ln(2^16 - 1) ~ 22.2).
RAPPOR is the same sketch with the two sizes named the other way round
and a different statistic and decoder.

The aggregator reads each report through the same hash functions: its
statistic is the L-vector of per-zone hits, hits[v] = sum over reports i
of bits[i, targets[row_i, v]], which it debiases once and then rids of the
uniform collision floor with a m/(m-1) correction. Only k x L of the
sketch's k x m bit sums are ever read, so the k x m table is never built.

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
    batch_type = CmsBatch

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

    def _bounds(self) -> dict:
        return {"hash_index": self.k}

    def _layout(self) -> tuple:
        return self.name, (self.l_zones,), None, (self.k, self.m), self.hash_seed

    def _count(self, batch: CmsBatch) -> Stats:
        """Per-zone hits, in one of two summation orders picked by L and m.

        At 8 L <= m each report's L target bits are gathered and then
        added up by ``column_sums``; the n x L gather index is then no
        larger than the n x m bits it reads. Wider zone sets sum each hash
        index's run of bit rows first (a stable sort on the index, then
        ``column_sums`` per run) and gather that run's targets from its
        m sums. Both orders add the same integers. Measured on 20k
        reports in 4096-row chunks (2-core host), the gather order is the
        faster one up to L = 32-48 at m = 256, L = 112-128 at m = 1024 and
        L = 384 at m = 4096.
        """
        n, index = batch.n_reports, batch.hash_index
        if 8 * self.l_zones <= self.m:
            cells = self.targets[index]
            cells += (np.arange(n) * self.m)[:, None]
            return self._stats(n, column_sums(batch.bits.ravel()[cells]))
        row_sizes = np.bincount(index, minlength=self.k)
        # a stable radix sort on the narrowest type that holds k - 1
        order = np.argsort(index.astype(np.min_scalar_type(self.k - 1)), kind="stable")
        bits = batch.bits[order]
        ends = np.cumsum(row_sizes)
        hits = np.zeros(self.l_zones, dtype=np.int64)
        for j in np.flatnonzero(row_sizes).tolist():
            hits += column_sums(bits[ends[j] - row_sizes[j]:ends[j]])[self.targets[j]]
        return self._stats(n, hits)

    def decode(self, stats: Stats) -> FrequencyEstimate:
        """Each zone's hits, summed over every report whatever its row,
        are debiased once with n."""
        n, p, q = stats.n_reports, self._probs.p, self._probs.q
        support = (stats.counts - n * q) / (p - q)
        raw = (self.m / (self.m - 1.0)) * (support - n / self.m)
        return FrequencyEstimate.from_raw(raw, n)

    aggregate = FrequencyOracle.aggregate
