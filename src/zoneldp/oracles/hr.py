"""Randomized response over rows of an orthogonal +/-1 transform.

Zones map to columns 1..L of the d' x d' matrix with entries
Phi[x, y] = d'^{-1/2} * (-1)^<x, y>, where <x, y> is the bitwise inner
product of the row and column indices and d' is the smallest power of two
that fits L+1 columns. Column 0 is constant and deliberately unused, so
every zone's column is orthogonal to the others AND carries signal.

A user samples one row uniformly and reports it with one bit, the sign of
the entry at their zone's column as the parity of <row, column> (0 for
+1), flipped with probability 1/(e^eps + 1) by ``k_rr`` at k = 2. The
aggregator sums the reported signs per row, an exact integer vector of
length d', decodes it by a fast Walsh-Hadamard transform, keeping columns
1..L, and only then applies the debias scale. The transform's partial sums
are integers, exact in float64, so the result equals the product with the
d' x L table of +/-1 entries bit for bit, with no such table built.
"""
from __future__ import annotations

import math
from typing import ClassVar

import numpy as np

from ..domain import FrequencyEstimate
from .base import FrequencyOracle, HrBatch, PerturbProbabilities, Stats, k_rr


def padded_dimension(l_zones: int) -> int:
    """Smallest power of two >= l_zones + 1."""
    if l_zones < 1:
        raise ValueError("l_zones must be positive")
    return 1 << (l_zones).bit_length()


def probabilities(epsilon: float) -> PerturbProbabilities:
    """The sign-flip randomized-response pair."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    e = math.exp(epsilon)
    return PerturbProbabilities(p=e / (e + 1.0), q=1.0 / (e + 1.0))


def scale_factor(epsilon: float) -> float:
    """Debias scale (e^eps + 1)/(e^eps - 1); also the per-report
    magnitude of a report's contribution to its own zone."""
    e = math.exp(epsilon)
    return (e + 1.0) / (e - 1.0)


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """In place, entry c of a power-of-two-length vector becomes the sum
    over r of (-1)^<r, c> * values[r]: one butterfly pass per bit."""
    for bit in range(values.size.bit_length() - 1):
        pairs = values.reshape(-1, 2, 1 << bit)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]
    return values


class HadamardResponse(FrequencyOracle):
    name: ClassVar[str] = "HR"
    batch_type = HrBatch

    def __init__(self, l_zones: int, epsilon: float):
        super().__init__(l_zones, epsilon)
        self.dim = padded_dimension(l_zones)
        self._probs = probabilities(epsilon)
        self._scale = scale_factor(epsilon)

    def perturb_batch(self, zones, rng: np.random.Generator) -> HrBatch:
        zones = self._check_zones(zones)
        rows = rng.integers(0, self.dim, size=zones.size)
        parity = np.bitwise_count(rows & (zones + 1)) & 1
        bit = k_rr(parity, 2, self._probs.p, rng).astype(np.uint8)
        return HrBatch(row_index=rows, bit=bit)

    def _bounds(self) -> dict:
        return {"row_index": self.dim, "bit": 2}

    def _layout(self) -> tuple:
        return self.name, (self.dim,), None, None, None

    def _count(self, batch: HrBatch) -> Stats:
        rows = batch.row_index
        # per row, the +1 signs (bit 0) less the -1 signs (bit 1), counted
        # in integers: independent of report order
        signs = np.bincount(2 * rows + batch.bit, minlength=2 * self.dim).reshape(-1, 2)
        return self._stats(batch.n_reports, signs[:, 0] - signs[:, 1])

    def decode(self, stats: Stats) -> FrequencyEstimate:
        row_sums = stats.counts.astype(np.float64)  # the transform runs in place
        raw = self._scale * _walsh_hadamard(row_sums)[1:self.l_zones + 1]
        return FrequencyEstimate.from_raw(raw, stats.n_reports)

    aggregate = FrequencyOracle.aggregate
