"""Zone division from fingerprints and client-side zone lookup.

A zone is the set of locations sharing the same M strongest access points.
Building the table is an offline batch step over training fingerprints; the
resulting table is public, immutable, and safe for concurrent lookups.

Table building and lookup are one array pass over an (n, APs) RSSI matrix,
given as such or joined from ``Fingerprint`` rows by ``domain.rssi_matrix``:
M passes over a transposed (APs, n) copy pick the M strongest APs of each
row (equal signals go to the lower AP id). The build keeps the first row of
each distinct sorted id set: row j of the table's (L, M) array is zone j.
A lookup keys each row's set by the sum of its APs' hashed weights mod
2^64, which no order of the picks changes, and checks the table rows in
that key's bucket exactly against the picks, so one path serves any AP
count and any M. ``assign_zones`` hands the matched zones on as an int64
array, which ``run_round`` and ``np.bincount`` take as they are.
``lookup_zone`` is ``assign_zones`` on a batch of one, and ``strongest_aps``
is the plain scalar statement of the same rule, kept as a reference.

Rows with fewer than M sensed APs (above the sentinel) are counted as
insufficient and never matched. NaN, +inf and below-sentinel RSSI values are
rejected by the one RSSI rule of ``domain``, whether they come in a
``Fingerprint``, a matrix or ``lookup_zone``'s vector. A table takes only
integer AP ids, and its JSON reader only integer, dense zone indices, so no
key can be truncated into a different set and no listed zone is dropped.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Optional, Sequence

import numpy as np

from .domain import SENTINEL_RSSI, Fingerprint, _is_int, _readonly, rssi_matrix
from .errors import EmptyTable, InsufficientSignals
from .oracles.hashing import mix64_array


def strongest_aps(rssi: np.ndarray, m: int) -> frozenset[int]:
    """Ids of the ``m`` strongest APs in one RSSI vector.

    Ties are broken toward the lower AP id so the result is independent of
    any prior ordering of the input. APs at the sentinel level count as not
    sensed at all.
    """
    if m < 1:
        raise ValueError("m must be positive")
    rssi = np.asarray(rssi, dtype=np.float64)
    sensed = int(np.count_nonzero(rssi > SENTINEL_RSSI))
    if sensed < m:
        raise InsufficientSignals(f"only {sensed} APs sensed, need {m}")
    # lexsort's last key is primary: strongest signal first, then lower id.
    order = np.lexsort((np.arange(rssi.size), -rssi))
    return frozenset(int(i) for i in order[:m])


def _ap_weights(n_aps: int) -> np.ndarray:
    """The uint64 key weight of each AP id: a set's key is the sum of its
    APs' weights mod 2^64, which no order of the ids changes."""
    return mix64_array(np.arange(n_aps))


def _strongest_sets(rssi: np.ndarray, m: int) -> np.ndarray:
    """The ``m`` strongest AP ids of every row with enough signals, as an
    (m, rows) array, strongest first.

    One pass per pick over a transposed (APs, n) copy: the column max, then
    the lowest AP id at that max, as the max of (signal == max) * (n_aps - id)
    in the narrowest unsigned type, which is the tie rule of
    :func:`strongest_aps`; the pick is then set to -inf. A row has enough
    sensed APs when its m-th pick is above the sentinel; rows that do not
    are dropped, so callers count them as ``n - result.shape[1]``.
    """
    n, n_aps = rssi.shape
    work = rssi.T.copy()
    rank_type = np.min_scalar_type(n_aps)
    ranks = np.arange(n_aps, 0, -1, dtype=rank_type)[:, None]  # n_aps - id
    ties = np.empty(work.shape, dtype=bool)
    ranked = np.empty(work.shape, dtype=rank_type)
    picks = np.empty((m, n), dtype=np.intp)
    columns = np.arange(n)
    for j in range(m):
        best = work.max(axis=0)
        np.equal(work, best, out=ties)
        np.multiply(ties, ranks, out=ranked)
        np.subtract(n_aps, ranked.max(axis=0), out=picks[j])
        work[picks[j], columns] = -np.inf
    return picks.compress(best > SENTINEL_RSSI, axis=1)


def _set_keys(ids: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row of ascending int64 AP ids.

    Equal sets give equal keys for any AP count and any ``m``, so
    ``np.unique`` over the keys finds the distinct sets.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    return ids.view(np.dtype((np.void, ids.itemsize * ids.shape[1])))[:, 0]


@dataclass(frozen=True, eq=False)
class ZoneTable:
    """The public zone table: row j of ``aps`` holds zone j's M AP ids.

    It is all that clients receive, and holds nothing about geometry, so
    publishing it reveals neither the floorplan nor AP positions. ``aps``
    (L >= 1 rows, an integer dtype) is kept as a read-only int64 copy with
    sorted rows; ValueError unless its ids lie in [0, ap_count) and are
    distinct within a row, and no two rows are the same set. The lookup
    index is built here, once. ``skipped_training`` is not compared.
    """

    aps: np.ndarray
    ap_count: int
    strongest_count: int
    skipped_training: int = 0

    def __post_init__(self):
        if not (_is_int(self.ap_count) and _is_int(self.strongest_count)):
            raise ValueError("ap_count and strongest_count must be integers")
        aps = np.asarray(self.aps)
        if aps.ndim != 2 or aps.size == 0 or aps.shape[1] != self.strongest_count:
            raise ValueError(f"aps of shape {aps.shape} is not a nonempty (L, M) array")
        if aps.dtype.kind not in "iu":
            raise ValueError(f"AP ids must be integers, got dtype {aps.dtype}")
        if aps.min() < 0 or aps.max() >= self.ap_count:
            raise ValueError(f"AP id out of range [0, {self.ap_count})")
        aps = _readonly(np.sort(aps, axis=1).astype(np.int64, copy=False))
        if np.any(aps[:, 1:] == aps[:, :-1]):
            raise ValueError("the AP ids of a zone must be distinct")
        if len(np.unique(_set_keys(aps))) < len(aps):
            raise ValueError("an AP set is listed under more than one zone")
        object.__setattr__(self, "aps", aps)
        # the top bits of a set's key pick its bucket of rows, in ``order``
        weights = _ap_weights(self.ap_count)
        keys = weights[aps].sum(axis=1)
        bits = len(aps).bit_length() + 2  # over four buckets a zone
        shift = np.uint64(64 - bits)
        order = np.argsort(keys >> shift)
        starts = np.searchsorted(keys[order] >> shift, np.arange(2**bits + 1, dtype=np.uint64))
        object.__setattr__(self, "_index", (weights, shift, order, keys[order], starts))

    def __eq__(self, other):
        if not isinstance(other, ZoneTable):
            return NotImplemented
        # equal rows have equal M, the row width
        return self.ap_count == other.ap_count and np.array_equal(self.aps, other.aps)

    def __reduce__(self):
        # the index and ``entries`` are rebuilt, not pickled (a mapping proxy cannot be)
        return ZoneTable, (self.aps, self.ap_count, self.strongest_count, self.skipped_training)

    @property
    def n_zones(self) -> int:
        return len(self.aps)

    @cached_property
    def entries(self) -> MappingProxyType:
        """Read-only {frozenset of AP ids: zone} view, built on first use."""
        return MappingProxyType({frozenset(aps): j for j, aps in enumerate(self.aps.tolist())})


def _zones_of(table: ZoneTable, picks: np.ndarray) -> np.ndarray:
    """Zone of each column of AP ids, or -1 where the set is unknown.

    Every column tries the table rows in its key's bucket in turn, one
    round each, and takes the first whose key is its own and whose m ids
    are all among its picks; keys that collide only cost one more round.
    """
    weights, shift, order, table_keys, starts = table._index
    keys = weights[picks].sum(axis=0)
    buckets = (keys >> shift).astype(np.intp)
    at, stop = starts[buckets], starts[buckets + 1]
    zones = np.full(keys.size, -1, dtype=np.int64)
    rows = np.flatnonzero(at < stop)
    while rows.size:
        candidates = at[rows]
        same = table_keys[candidates] == keys[rows]
        hits, candidates = rows[same], order[candidates[same]]
        row_picks = picks.take(hits, axis=1)
        exact = np.ones(hits.size, dtype=bool)
        for ap in table.aps[candidates].T:
            exact &= (row_picks == ap).any(axis=0)
        zones[hits[exact]] = candidates[exact]
        at[rows] += 1
        rows = rows[(zones[rows] < 0) & (at[rows] < stop[rows])]
    return zones


def build_zone_table(training: np.ndarray | Sequence[Fingerprint], m: int) -> ZoneTable:
    """One zone per distinct strongest-AP set seen in the training data.

    ``training`` is an RSSI matrix or a sequence of ``Fingerprint``. Zone
    indices are dense and assigned in first-seen order. Training rows with
    fewer than ``m`` sensed APs are skipped and tallied in
    ``skipped_training``.
    """
    if len(training) == 0:
        raise EmptyTable("no training fingerprints")
    rssi = rssi_matrix(training)
    n_aps = rssi.shape[1]
    if not 1 <= m <= n_aps:
        raise ValueError(f"m={m} must be in [1, {n_aps}], the AP count")
    ids = np.sort(_strongest_sets(rssi, m), axis=0).T
    if not len(ids):
        raise EmptyTable("every training fingerprint had too few sensed APs")
    _, first = np.unique(_set_keys(ids), return_index=True)
    return ZoneTable(ids[np.sort(first)], n_aps, m, skipped_training=len(training) - len(ids))


def lookup_zone(table: ZoneTable, rssi: np.ndarray) -> Optional[int]:
    """Map one RSSI vector to its zone, or None when its set is unknown.

    Runs entirely on the client: only the public table and the user's own
    measurements are touched. The vector (nonempty, 1-d) is looked up as a
    one-row matrix, so the RSSI rule checks it (ValueError on NaN, +inf or
    a value below the sentinel) and a writable one is copied, not frozen.
    Raises InsufficientSignals when fewer than ``table.strongest_count``
    APs are sensed.
    """
    rssi = np.asarray(rssi, dtype=np.float64)
    if rssi.ndim != 1 or rssi.size == 0:
        raise ValueError("rssi must be a nonempty 1-d vector")
    zones, insufficient, _ = assign_zones(table, rssi[None, :])
    if insufficient:
        sensed = int(np.count_nonzero(rssi > SENTINEL_RSSI))
        raise InsufficientSignals(f"only {sensed} APs sensed, need {table.strongest_count}")
    return int(zones[0]) if zones.size else None


def zone_table_to_json(table: ZoneTable) -> str:
    """Stable JSON form: {"n_aps": N, "m": M, "zones": [{"aps": [...], "zone": j}]}.

    Zones sorted by index, AP ids sorted ascending, so equal tables always
    serialize to identical bytes.
    """
    zones = [{"aps": aps, "zone": zone} for zone, aps in enumerate(table.aps.tolist())]
    payload = {
        "n_aps": int(table.ap_count),  # a numpy integer is not JSON
        "m": int(table.strongest_count),
        "zones": zones,
    }
    return json.dumps(payload, indent=2) + "\n"


def zone_table_from_json(text: str) -> ZoneTable:
    """The table of ``zone_table_to_json``'s form, ``aps`` in any order.
    ValueError also for an AP id or zone index that is not an integer (a
    float or a bool too), or zone indices that are not 0..L-1 once each."""
    payload = json.loads(text)
    zones = [entry["zone"] for entry in payload["zones"]]
    rows = [entry["aps"] for entry in payload["zones"]]
    for name, values in (("zone indices", zones), ("AP ids", [ap for row in rows for ap in row])):
        wrong = [value for value in values if not _is_int(value)]
        if wrong:
            raise ValueError(f"{name} must be integers, got {wrong[0]!r}")
    if sorted(zones) != list(range(len(zones))):
        raise ValueError("zone indices must be dense 0..L-1 without repeats")
    return ZoneTable(np.array(rows)[np.argsort(zones)], payload["n_aps"], payload["m"])


def load_zone_table(path) -> ZoneTable:
    with open(path, "r", encoding="utf-8") as fh:
        return zone_table_from_json(fh.read())


def assign_zones(
    table: ZoneTable, fingerprints: np.ndarray | Sequence[Fingerprint]
) -> tuple[np.ndarray, int, int]:
    """Look up many fingerprints, an RSSI matrix or a sequence of
    ``Fingerprint``; returns (zones, n_insufficient, n_unmatched).

    Users whose rows cannot be mapped are excluded (a real aggregator never
    hears from them) and tallied per cause. ``zones`` is a fresh, writable
    int64 array in input order.
    """
    if len(fingerprints) == 0:
        return np.empty(0, dtype=np.int64), 0, 0
    rssi = rssi_matrix(fingerprints, table.ap_count)
    picks = _strongest_sets(rssi, table.strongest_count)
    zones = _zones_of(table, picks)
    matched = zones[zones >= 0]
    sufficient = picks.shape[1]
    return matched, len(fingerprints) - sufficient, sufficient - matched.size
