"""Core data types shared by every module. The zone table is in ``zoning``,
next to its builder, its lookup and its JSON form.

Everything here is immutable after construction, carries no I/O and no
randomness, and is safe to share across worker processes.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

# In-band marker for an access point that was not sensed at all. Stored
# inside the RSSI vector (instead of masking) so matrix arithmetic stays
# uniform; -110 dBm is below any realistically measured strength.
SENTINEL_RSSI = -110.0

# Canonical mechanism names, in the order used everywhere (reports, sweeps,
# summaries). Membership in this tuple is what "valid mechanism" means.
MECHANISMS = ("OLH", "OUE", "THE", "HR", "CMS", "RAPPOR")


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for floats, even 1.0, and bools."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and numpy reals, integers included; False for bools
    and strings."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array. A writable input is copied
    first, so the caller's array stays writable and a later write to it
    cannot reach the result; a read-only one is kept as it is."""
    a = np.asarray(values, dtype=np.float64)
    return _readonly(a.copy() if a.flags.writeable else a)


def _check_rssi(rssi: np.ndarray) -> np.ndarray:
    """The RSSI rule: ValueError on NaN, +inf or a value below the sentinel
    (-inf included). NaN and +inf would otherwise sort as strongest."""
    if not np.all((rssi >= SENTINEL_RSSI) & (rssi < np.inf)):
        raise ValueError(f"rssi values must be finite and >= {SENTINEL_RSSI} dBm")
    return rssi


@dataclass(frozen=True)
class Fingerprint:
    """One observation: a per-AP RSSI vector.

    ``rssi[i]`` is the strength measured from access point ``i`` in dBm, or
    ``SENTINEL_RSSI`` when that AP was not sensed.

    A float64 ``rssi`` is kept as given and made read-only, so the caller's
    own array turns read-only too. A copy per row made a 20k-row lookup
    window about 7% slower, and ROADMAP.md plans to remove this class in
    favour of the (n, APs) matrix that ``rssi_matrix`` already takes.
    """

    rssi: np.ndarray

    def __post_init__(self):
        rssi = np.asarray(self.rssi, dtype=np.float64)
        if rssi.ndim != 1 or rssi.size == 0:
            raise ValueError("rssi must be a nonempty 1-d vector")
        object.__setattr__(self, "rssi", _readonly(_check_rssi(rssi)))


def rssi_matrix(rows, width: Optional[int] = None) -> np.ndarray:
    """The read-only (n, APs) float64 matrix of a set of fingerprints.

    ``rows`` is either such a matrix, checked by the RSSI rule, or a
    sequence of ``Fingerprint``, checked when each was built and here only
    joined; an empty sequence gives n = 0 rows of ``width`` (or 0) APs.
    ValueError when the rows differ in width, or from ``width`` when it is
    given.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ValueError(f"an rssi matrix must be 2-d, got shape {rows.shape}")
        # a writable matrix is copied, so the caller cannot change it later
        matrix = _check_rssi(rows.astype(np.float64, copy=rows.flags.writeable))
        widths = {matrix.shape[1]}
    else:
        vectors = [fp.rssi for fp in rows]
        widths = {vector.size for vector in vectors} or {width or 0}
    wrong = widths - {width} if width is not None else set()
    if wrong:
        raise ValueError(f"rssi length {min(wrong)} does not match AP count {width}")
    if len(widths) > 1:
        raise ValueError(f"inconsistent AP counts: {sorted(widths)}")
    if not isinstance(rows, np.ndarray):
        # not b"".join of the vectors' buffers, which is faster: numpy
        # keeps the description of each buffer it exports with the array,
        # 56 bytes a row for as long as the row lives
        joined = np.concatenate(vectors) if vectors else np.empty(0)
        matrix = joined.reshape(len(vectors), widths.pop())
    return _readonly(matrix)


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
class PrivacyParams:
    """Per-mechanism sizes for a round; the mechanism and the privacy
    level are given next to it, never inside it.

    Defaults follow the usual telemetry-scale settings: a 128-function,
    1024-column sketch and a 64-bit, 1024-cohort bloom layout, with a unit
    threshold for the noisy-histogram mechanism. Raises ValueError, and
    coerces nothing, unless the threshold is a finite real and every size
    an integer >= 1 (CMS's width >= 2, for its collision correction).
    """

    the_theta: float = 1.0
    cms_k: int = 128
    cms_m: int = 1024
    rappor_k: int = 64
    rappor_m: int = 1024

    def __post_init__(self):
        if not (_is_real(self.the_theta) and math.isfinite(self.the_theta)):
            raise ValueError(f"the_theta must be a finite real, got {self.the_theta!r}")
        for name in ("cms_k", "cms_m", "rappor_k", "rappor_m"):
            value, least = getattr(self, name), 2 if name == "cms_m" else 1
            if not (_is_int(value) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class FrequencyEstimate:
    """Per-zone estimated counts for one aggregation round.

    ``raw`` is the debiased estimate and may be negative; ``clamped`` is
    ``max(raw, 0)`` elementwise. Clamping never increases the absolute error
    against a nonnegative truth, so it is what gets reported as populations,
    while ``raw`` is kept for metric computation. Both are read-only; a
    writable array passed in is copied, so the caller's stays writable.
    """

    raw: np.ndarray
    clamped: np.ndarray
    n_reports: int

    def __post_init__(self):
        raw, clamped = _frozen(self.raw), _frozen(self.clamped)
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
        raw = _frozen(raw)
        # a fresh array nobody else holds: frozen in place, not copied
        clamped = _readonly(np.maximum(raw, 0.0))
        return cls(raw=raw, clamped=clamped, n_reports=int(n_reports))

    @property
    def l_zones(self) -> int:
        return int(self.raw.size)

    def rounded(self) -> np.ndarray:
        """Clamped counts rounded half-up to integers."""
        return np.floor(self.clamped + 0.5).astype(np.int64)
