"""Core data types shared by every module.

Everything here is immutable after construction, carries no I/O and no
randomness, and is safe to share across worker processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

# In-band marker for an access point that was not sensed at all. Stored
# inside the RSSI vector (instead of masking) so matrix arithmetic stays
# uniform; -110 dBm is below any realistically measured strength.
SENTINEL_RSSI = -110.0

# Canonical mechanism names, in the order used everywhere (reports, sweeps,
# summaries). Membership in this tuple is what "valid mechanism" means.
MECHANISMS = ("OLH", "OUE", "THE", "HR", "CMS", "RAPPOR")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Fingerprint:
    """One observation: an optional planar location plus a per-AP RSSI vector.

    ``rssi[i]`` is the strength measured from access point ``i`` in dBm, or
    ``SENTINEL_RSSI`` when that AP was not sensed. Client-side rows carry no
    location; only surveyed training rows do.
    """

    rssi: np.ndarray
    location: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        rssi = np.asarray(self.rssi, dtype=np.float64)
        if rssi.ndim != 1 or rssi.size == 0:
            raise ValueError("rssi must be a nonempty 1-d vector")
        if np.any(rssi < SENTINEL_RSSI):
            raise ValueError(
                f"rssi values below the {SENTINEL_RSSI} dBm sentinel are invalid"
            )
        object.__setattr__(self, "rssi", _readonly(rssi))
        if self.location is not None:
            x, y = self.location
            object.__setattr__(self, "location", (float(x), float(y)))

    @property
    def n_aps(self) -> int:
        return int(self.rssi.size)


def max_zone_count(n_aps: int, m_strongest: int) -> int:
    """Upper bound on distinct zones: C(n_aps, m_strongest).

    A zone is identified by an unordered set of the m strongest APs, so the
    number of distinct zones can never exceed the number of such subsets.
    """
    if n_aps < 1 or m_strongest < 1:
        raise ValueError("n_aps and m_strongest must be positive")
    if m_strongest > n_aps:
        raise ValueError(f"m_strongest={m_strongest} exceeds n_aps={n_aps}")
    return math.comb(n_aps, m_strongest)


@dataclass(frozen=True)
class ZoneTable:
    """Public mapping from unordered M-sets of AP ids to dense zone indices.

    This is the only information broadcast to clients. It contains AP-id
    sets and zone indices, nothing about geometry, so publishing it reveals
    neither the floorplan nor AP positions.
    """

    entries: dict  # frozenset[int] -> zone index
    ap_count: int
    strongest_count: int
    skipped_training: int = field(default=0, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("zone table must have at least one entry")
        zones = sorted(self.entries.values())
        if zones != list(range(len(zones))):
            raise ValueError("zone indices must be dense 0..L-1 without repeats")
        for key in self.entries:
            if len(key) != self.strongest_count:
                raise ValueError(
                    f"key {sorted(key)} has size {len(key)}, "
                    f"expected {self.strongest_count}"
                )
            if any(not (0 <= ap < self.ap_count) for ap in key):
                raise ValueError(f"AP id out of range in key {sorted(key)}")
        bound = max_zone_count(self.ap_count, self.strongest_count)
        if len(self.entries) > bound:
            raise ValueError(f"{len(self.entries)} zones exceed the bound {bound}")

    @property
    def n_zones(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy level, mechanism choice, and per-mechanism sizes for a round.

    Defaults for the sizes follow the usual telemetry-scale settings: a
    128-function, 1024-column sketch and a 64-bit, 1024-cohort bloom layout,
    with a unit threshold for the noisy-histogram mechanism.
    """

    epsilon: float
    mechanism: str
    the_theta: float = 1.0
    cms_k: int = 128
    cms_m: int = 1024
    rappor_k: int = 64
    rappor_m: int = 1024

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.mechanism not in MECHANISMS:
            raise ValueError(
                f"unknown mechanism {self.mechanism!r}; expected one of {MECHANISMS}"
            )
        for name in ("cms_k", "cms_m", "rappor_k", "rappor_m"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class FrequencyEstimate:
    """Per-zone estimated counts for one aggregation round.

    ``raw`` is the debiased estimate and may be negative; ``clamped`` is
    ``max(raw, 0)`` elementwise. Clamping never increases the absolute error
    against a nonnegative truth, so it is what gets reported as populations,
    while ``raw`` is kept for metric computation.
    """

    raw: np.ndarray
    clamped: np.ndarray
    n_reports: int

    def __post_init__(self):
        raw = _readonly(np.asarray(self.raw, dtype=np.float64))
        clamped = _readonly(np.asarray(self.clamped, dtype=np.float64))
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "clamped", clamped)
        if raw.shape != clamped.shape or raw.ndim != 1:
            raise ValueError("raw and clamped must be 1-d vectors of equal length")
        if not np.array_equal(clamped, np.maximum(raw, 0.0)):
            raise ValueError("clamped must equal max(raw, 0) elementwise")
        if self.n_reports < 0:
            raise ValueError("n_reports must be nonnegative")

    @classmethod
    def from_raw(cls, raw: np.ndarray, n_reports: int) -> "FrequencyEstimate":
        raw = np.asarray(raw, dtype=np.float64)
        return cls(raw=raw, clamped=np.maximum(raw, 0.0), n_reports=int(n_reports))

    @property
    def l_zones(self) -> int:
        return int(self.raw.size)

    def rounded(self) -> np.ndarray:
        """Clamped counts rounded half-up to integers."""
        return np.floor(self.clamped + 0.5).astype(np.int64)
