"""Evaluation metrics: RMSE, range-normalized RMSE, Kendall's tau distance.

Kendall's distance is counted in numpy by one counter, ``_discordant_pairs``:
``metric_report`` ranks both vectors as arrays and counts the discordant
pairs of one ranking in the other's positions, and ``kendall_tau_distance``
checks its two rankings and counts the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import DegenerateRange

# values of a sequence whose pairs ``_discordant_pairs`` compares directly,
# and the (i < j) mask of those pairs
_RUN = 32
_BEFORE = np.triu(np.ones((_RUN, _RUN), dtype=bool), 1)


@dataclass(frozen=True)
class MetricReport:
    """Metrics for one round. ``nrmse`` is None when the truth is flat."""

    rmse: float
    nrmse: Optional[float]
    kendall_tau: int


def rmse(z: np.ndarray, z_hat: np.ndarray) -> float:
    z = np.asarray(z, dtype=np.float64)
    z_hat = np.asarray(z_hat, dtype=np.float64)
    if z.shape != z_hat.shape or z.ndim != 1 or z.size == 0:
        raise ValueError("inputs must be nonempty 1-d vectors of equal length")
    return float(np.sqrt(np.mean((z - z_hat) ** 2)))


def nrmse(z: np.ndarray, z_hat: np.ndarray) -> float:
    """RMSE divided by the range of the TRUE vector ``z``."""
    z = np.asarray(z, dtype=np.float64)
    span = float(z.max() - z.min()) if z.size else 0.0
    err = rmse(z, z_hat)
    if span <= 0.0:
        raise DegenerateRange("true vector has zero range")
    return err / span


def _ranking(counts: np.ndarray) -> np.ndarray:
    """``rank_zones`` as an index array."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("counts must be a nonempty 1-d vector")
    # lexsort's last key is primary: most populated first, then lower index
    return np.lexsort((np.arange(counts.size), -counts))


def rank_zones(counts: np.ndarray) -> List[int]:
    """Zone indices ordered most-populated first; ties go to the lower index."""
    return _ranking(counts).tolist()


def kendall_tau_distance(tau1: Sequence, tau2: Sequence) -> int:
    """Number of item pairs the two rankings order oppositely.

    0 for identical rankings, L(L-1)/2 for exact reversal. Computed as the
    inversion count of one ranking expressed in the other's positions, by
    ``_discordant_pairs`` (blocked merges in numpy, O(L log^2 L)).
    """
    if len(tau1) != len(tau2):
        raise ValueError("rankings must have equal length")
    if len(set(tau1)) != len(tau1) or set(tau1) != set(tau2):
        raise ValueError("rankings must be permutations of the same items")
    position = {item: idx for idx, item in enumerate(tau2)}
    sequence = np.fromiter(map(position.__getitem__, tau1), np.int64, len(tau1))
    return _discordant_pairs(sequence)


def _discordant_pairs(sequence: np.ndarray) -> int:
    """Pairs i < j with sequence[i] > sequence[j], for a permutation of
    0..L-1 (Knight, JASA 1966).

    The sequence is padded with L, L+1, ... (greater than every value and
    after it, so they add no pair) to a power-of-two number of runs of
    ``_RUN`` values. Pairs within a run are compared all at once; the runs
    are then sorted and merged two by two, each right value counting the
    left values above it by ``searchsorted``. The pairs of a merge level
    are searched in one call, each pair's values offset past the last's.
    """
    size = sequence.size
    width = min(size, _RUN)
    if width < 2:
        return 0
    runs = 1 << (-(-size // width) - 1).bit_length()
    padded = np.arange(runs * width, dtype=np.int64)
    padded[:size] = sequence
    blocks = padded.reshape(runs, width)
    above = blocks[:, :, None] > blocks[:, None, :]
    above &= _BEFORE[:width, :width]
    count = np.count_nonzero(above)
    while runs > 1:
        # sorts each run; from the second level on, merges its two halves
        blocks.sort(axis=1, kind="stable")
        runs //= 2
        pairs = blocks.reshape(runs, 2, width)
        offsets = np.arange(0, runs * padded.size, padded.size)[:, None]
        left = (pairs[:, 0] + offsets).ravel()
        at = np.searchsorted(left, (pairs[:, 1] + offsets).ravel())
        # a right value of pair k lands at k * width + (left values below it)
        below = int(at.sum()) - width * width * (runs * (runs - 1) // 2)
        count += runs * width * width - below
        width *= 2
        blocks = pairs.reshape(runs, width)
    return int(count)


def metric_report(true_counts: np.ndarray, raw_estimate: np.ndarray) -> MetricReport:
    """Bundle all three metrics for one (truth, raw estimate) pair.

    Rankings are derived from the raw estimate, not the clamped one:
    clamping collapses distinct negatives into ties at zero.
    """
    true_counts = np.asarray(true_counts, dtype=np.float64)
    raw_estimate = np.asarray(raw_estimate, dtype=np.float64)
    try:
        normalized = nrmse(true_counts, raw_estimate)
    except DegenerateRange:
        normalized = None
    order = _ranking(true_counts)
    position = np.empty_like(order)
    position[_ranking(raw_estimate)] = np.arange(order.size)
    tau = _discordant_pairs(position[order])
    return MetricReport(
        rmse=rmse(true_counts, raw_estimate),
        nrmse=normalized,
        kendall_tau=tau,
    )
