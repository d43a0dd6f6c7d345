"""Shared oracle machinery: probability pairs, report types, the debiased
frequency estimator, and the mechanism base class.

Every mechanism is a perturb/aggregate pair. Perturbation runs client-side
on a single zone index; aggregation reduces many reports to per-zone count
estimates. The three mechanisms that report a randomized one-hot bit row
(OUE over the L zones, CMS and RAPPOR over a hashed row) share one client
randomizer, ``one_hot_rr``. Aggregators reduce reports to integer
sufficient statistics before doing float arithmetic, so the estimate is
invariant under any permutation of the reports.
"""
from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from ..domain import FrequencyEstimate
from ..errors import DegenerateProbabilities


@dataclass(frozen=True)
class PerturbProbabilities:
    """Per-value report probabilities: p for the true value, q for others.

    The debiasing step divides by p - q, so p > q is required.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0) or not (0.0 <= self.q < 1.0):
            raise DegenerateProbabilities(f"p={self.p}, q={self.q} out of range")
        if not self.p > self.q:
            raise DegenerateProbabilities(f"p={self.p} must exceed q={self.q}")


# cells per block of the blocked loops (one_hot_rr's uniforms, OLH's hash
# replay): bounds each scratch array at 4 MB of 8-byte cells (512 rows at
# width 1024, 8192 rows at width 64)
_BLOCK_CELLS = 1 << 19


def one_hot_rr(
    positions, width: int, probs: PerturbProbabilities, rng: np.random.Generator
) -> np.ndarray:
    """Per-bit randomized response on one-hot rows; returns n x width uint8.

    Row i has a 1 at ``positions[i]`` before randomization: that bit is
    reported as 1 with probability p and every other bit with probability
    q. Each bit is one uniform compared against its threshold. The
    uniforms are drawn row-major in blocks of at most ``_BLOCK_CELLS``
    into one reused buffer, so the stream is the same as a single
    ``rng.random((n, width))`` call while memory stays bounded for any n.
    """
    positions = np.asarray(positions, dtype=np.int64)
    n = positions.size
    bits = np.empty((n, width), dtype=np.uint8)
    block_rows = max(1, _BLOCK_CELLS // width)
    buf = np.empty((min(block_rows, n), width))
    rows = np.arange(buf.shape[0])
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        uniforms = buf[: stop - start]
        rng.random(out=uniforms)
        out = bits[start:stop]
        np.less(uniforms, probs.q, out=out.view(np.bool_))
        r, targets = rows[: stop - start], positions[start:stop]
        out[r, targets] = uniforms[r, targets] < probs.p
    return bits


def estimate_frequency(
    indicator_counts: np.ndarray, n: int, probs: PerturbProbabilities
) -> FrequencyEstimate:
    """Debiased per-zone counts: raw[j] = (counts[j] - n*q) / (p - q).

    ``counts[j]`` is how many of the ``n`` reports support zone j under the
    mechanism's decoding; a report supports the true zone with probability p
    and any other zone with probability q, which this inverts in expectation.
    """
    counts = np.asarray(indicator_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("indicator_counts must be a nonempty 1-d vector")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if np.any(counts < 0) or np.any(counts > n):
        raise ValueError("each count must lie in [0, n]")
    raw = (counts - n * probs.q) / (probs.p - probs.q)
    return FrequencyEstimate.from_raw(raw, n)


# --- report payloads -------------------------------------------------------
# One frozen dataclass per mechanism, field names matching the wire format.


@dataclass(frozen=True)
class OlhReport:
    hash_seed: int  # identifies the user's hash function
    value: int  # hashed-and-perturbed bucket in [0, g)


@dataclass(frozen=True)
class OueReport:
    bits: tuple  # L bits


@dataclass(frozen=True)
class TheReport:
    values: tuple  # L noisy reals


@dataclass(frozen=True)
class HrReport:
    row_index: int  # row of the transform matrix, in [0, d')
    signed_value: float  # +/- scaled matrix entry


@dataclass(frozen=True)
class CmsReport:
    hash_index: int  # which family member the user applied, in [0, k)
    bits: tuple  # m bits


@dataclass(frozen=True)
class RapporReport:
    cohort: int  # user's cohort, in [0, m)
    bits: tuple  # k bits


Report = Union[OlhReport, OueReport, TheReport, HrReport, CmsReport, RapporReport]


class FrequencyOracle(abc.ABC):
    """Perturb/aggregate pair for one mechanism at fixed (l_zones, epsilon).

    perturb_batch() perturbs a whole population in vectorized form and
    returns a batch container whose reports() lists one report per user.
    perturb() handles one user as a batch of one, so each mechanism has a
    single sampler. aggregate() accepts either a sequence of reports or a
    batch container.
    """

    name: ClassVar[str]

    def __init__(self, l_zones: int, epsilon: float):
        if l_zones < 1:
            raise ValueError("l_zones must be positive")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        self.l_zones = int(l_zones)
        self.epsilon = float(epsilon)

    def _check_zones(self, zones) -> np.ndarray:
        zones = np.asarray(zones, dtype=np.int64)
        if zones.ndim != 1:
            raise ValueError("zones must be a 1-d vector")
        if zones.size and (zones.min() < 0 or zones.max() >= self.l_zones):
            raise ValueError(f"zone indices out of range [0, {self.l_zones})")
        return zones

    @abc.abstractmethod
    def probabilities(self) -> PerturbProbabilities:
        """The (p, q) pair the aggregator debiases with."""

    def perturb(self, zone: int, rng: np.random.Generator) -> Report:
        """Perturb one user's zone into a report: a batch of one."""
        return self.perturb_batch([zone], rng).reports()[0]

    @abc.abstractmethod
    def perturb_batch(self, zones, rng: np.random.Generator):
        """Perturb many users at once; returns a mechanism batch container."""

    @abc.abstractmethod
    def aggregate(self, reports) -> FrequencyEstimate:
        """Reduce reports to per-zone estimated counts."""

