"""Randomized response over rows of an orthogonal +/-1 transform.

Zones map to columns 1..L of the d' x d' matrix with entries
Phi[x, y] = d'^{-1/2} * (-1)^<x, y>, where <x, y> is the bitwise inner
product of the row and column indices and d' is the smallest power of two
that fits L+1 columns. Column 0 is constant and deliberately unused, so
every zone's column is orthogonal to the others AND carries signal.

A user samples one row uniformly, reads the +/-1 entry at their zone's
column, flips its sign with probability 1/(e^eps + 1), and scales the
result so the estimate is unbiased. The aggregator sums each report's
value against the same matrix entry for every candidate zone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

import numpy as np

from ..domain import FrequencyEstimate
from .base import FrequencyOracle, HrReport, PerturbProbabilities


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


def _sign_entries(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(-1)^<row, column> without the d'^{-1/2} normalization."""
    parity = np.bitwise_count(rows & columns).astype(np.int64) & 1
    return 1 - 2 * parity


@dataclass(frozen=True)
class HrBatch:
    row_indices: np.ndarray  # int64 in [0, d')
    signed_values: np.ndarray  # float64

    @property
    def n_reports(self) -> int:
        return int(self.row_indices.size)

    def reports(self) -> list:
        return [
            HrReport(row_index=r, signed_value=v)
            for r, v in zip(self.row_indices.tolist(), self.signed_values.tolist())
        ]


class HadamardResponse(FrequencyOracle):
    name: ClassVar[str] = "HR"

    def __init__(self, l_zones: int, epsilon: float):
        super().__init__(l_zones, epsilon)
        self.dim = padded_dimension(l_zones)
        e = math.exp(epsilon)
        self._p_keep = e / (e + 1.0)
        self._scale = scale_factor(epsilon)

    def probabilities(self) -> PerturbProbabilities:
        return probabilities(self.epsilon)

    def perturb_batch(self, zones, rng: np.random.Generator) -> HrBatch:
        zones = self._check_zones(zones)
        n = zones.size
        rows = rng.integers(0, self.dim, size=n).astype(np.uint64)
        signs = _sign_entries(rows, (zones + 1).astype(np.uint64))
        keeps = np.where(rng.random(n) < self._p_keep, 1, -1)
        values = keeps * self._scale * math.sqrt(self.dim) * signs
        return HrBatch(row_indices=rows.astype(np.int64), signed_values=values)

    def _as_batch(self, reports: Union[Sequence[HrReport], HrBatch]) -> HrBatch:
        if isinstance(reports, HrBatch):
            return reports
        rows = np.array([r.row_index for r in reports], dtype=np.int64)
        values = np.array([r.signed_value for r in reports], dtype=np.float64)
        return HrBatch(row_indices=rows, signed_values=values)

    def aggregate(self, reports) -> FrequencyEstimate:
        batch = self._as_batch(reports)
        n = batch.n_reports
        if n == 0:
            return FrequencyEstimate.from_raw(np.zeros(self.l_zones), 0)
        rows = batch.row_indices
        if rows.min() < 0 or rows.max() >= self.dim:
            raise ValueError(f"row index out of range [0, {self.dim})")
        # canonical order: float summation must not depend on report order
        order = np.lexsort((batch.signed_values, rows))
        rows = rows[order].astype(np.uint64)
        values = batch.signed_values[order]
        columns = np.arange(1, self.l_zones + 1, dtype=np.uint64)
        signs = _sign_entries(rows[:, None], columns[None, :])
        contributions = values[:, None] * signs / math.sqrt(self.dim)
        raw = contributions.sum(axis=0)
        return FrequencyEstimate.from_raw(raw, n)
