"""Zone division from fingerprints and client-side zone lookup.

A zone is the set of locations sharing the same M strongest access points.
Building the table is an offline batch step over training fingerprints; the
resulting table is public, immutable, and safe for concurrent lookups.

Table building and lookup are one array pass over all rows: the rows are
joined into an (n, APs) matrix, M passes of ``argmax`` pick the M strongest
APs of each row (equal signals go to the lower AP id), and each sorted id set
becomes a byte-string key that is matched against the table's sorted keys
with ``searchsorted``. ``lookup_zone`` is that pass on a batch of one, and
``strongest_aps`` is the plain scalar statement of the same rule, kept as a
reference.

Rows with fewer than M sensed APs (above the sentinel) are counted as
insufficient and never matched. NaN and +inf RSSI values are rejected when a
``Fingerprint`` is built (``lookup_zone`` checks its raw vector the same
way), and a zone table rejects AP ids and zone indices
that are not integers, so no key can be truncated into a different set.
"""
from __future__ import annotations

import json
from typing import FrozenSet, List, Optional, Sequence

import numpy as np

from .domain import SENTINEL_RSSI, Fingerprint, ZoneTable
from .errors import EmptyTable, InsufficientSignals

StrongestSet = FrozenSet[int]


def strongest_aps(rssi: np.ndarray, m: int) -> StrongestSet:
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


def _strongest_sets(rssi: np.ndarray, m: int) -> np.ndarray:
    """Ascending ids of the ``m`` strongest APs of every row with enough signals.

    ``m`` passes of ``argmax`` over the rows with at least ``m`` sensed APs,
    each setting its pick to -inf: ``argmax`` returns the first maximum, so
    equal signals go to the lower AP id, which is the tie rule of
    :func:`strongest_aps`. Rows with fewer than ``m`` sensed APs are
    dropped, so callers count them as ``n - len(result)``.
    """
    sufficient = np.count_nonzero(rssi > SENTINEL_RSSI, axis=1) >= m
    remaining = rssi[sufficient]  # a copy, so the picks can be masked
    rows = np.arange(len(remaining))
    top = np.empty((len(remaining), m), dtype=np.int64)
    for j in range(m):
        top[:, j] = np.argmax(remaining, axis=1)
        remaining[rows, top[:, j]] = -np.inf
    return np.sort(top, axis=1)


def _set_keys(ids: np.ndarray) -> np.ndarray:
    """One opaque byte-string key per row of ascending int64 AP ids.

    Equal sets give equal keys for any AP count and any ``m``, and the keys
    sort, so sets are matched with ``searchsorted``.
    """
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    return ids.view(np.dtype((np.void, ids.itemsize * ids.shape[1])))[:, 0]


def _zones_of(table: ZoneTable, ids: np.ndarray) -> np.ndarray:
    """Zone of each row of ascending AP ids, or -1 where the set is unknown."""
    table_keys = _set_keys(np.array([sorted(key) for key in table.entries]))
    table_zones = np.fromiter(table.entries.values(), np.int64, table.n_zones)
    order = np.argsort(table_keys)
    table_keys, table_zones = table_keys[order], table_zones[order]

    keys = _set_keys(ids)
    at = np.minimum(np.searchsorted(table_keys, keys), table.n_zones - 1)
    return np.where(table_keys[at] == keys, table_zones[at], -1)


def _check_width(width: int, table: ZoneTable) -> None:
    if width != table.ap_count:
        raise ValueError(
            f"rssi length {width} does not match table AP count {table.ap_count}"
        )


def build_zone_table(training: Sequence[Fingerprint], m: int) -> ZoneTable:
    """One zone per distinct strongest-AP set seen in the training data.

    Zone indices are dense and assigned in first-seen order. Training rows
    with fewer than ``m`` sensed APs are skipped and tallied in
    ``skipped_training``.
    """
    if not training:
        raise EmptyTable("no training fingerprints")
    widths = {fp.n_aps for fp in training}
    if len(widths) != 1:
        raise ValueError(f"inconsistent AP counts in training data: {sorted(widths)}")
    n_aps = widths.pop()
    if m < 1:
        raise ValueError("m must be positive")
    if m > n_aps:
        raise ValueError(f"m={m} exceeds AP count {n_aps}")

    rssi = np.concatenate([fp.rssi for fp in training]).reshape(len(training), n_aps)
    ids = _strongest_sets(rssi, m)
    if not len(ids):
        raise EmptyTable("every training fingerprint had too few sensed APs")
    _, first = np.unique(_set_keys(ids), return_index=True)
    first_seen = ids[np.sort(first)].tolist()
    return ZoneTable(
        entries={frozenset(aps): zone for zone, aps in enumerate(first_seen)},
        ap_count=n_aps,
        strongest_count=m,
        skipped_training=len(training) - len(ids),
    )


def lookup_zone(table: ZoneTable, rssi: np.ndarray) -> Optional[int]:
    """Map one RSSI vector to its zone, or None when its set is unknown.

    Runs entirely on the client: only the public table and the user's own
    measurements are touched. The vector is checked as a ``Fingerprint``
    is (ValueError on NaN, +inf or a value below the sentinel). Raises
    InsufficientSignals when fewer than ``table.strongest_count`` APs are
    sensed.
    """
    rssi = Fingerprint(rssi).rssi
    _check_width(rssi.size, table)
    ids = _strongest_sets(rssi.reshape(1, -1), table.strongest_count)
    if not len(ids):
        sensed = int(np.count_nonzero(rssi > SENTINEL_RSSI))
        raise InsufficientSignals(
            f"only {sensed} APs sensed, need {table.strongest_count}"
        )
    zone = int(_zones_of(table, ids)[0])
    return None if zone < 0 else zone


def zone_table_to_json(table: ZoneTable) -> str:
    """Stable JSON form: {"n_aps": N, "m": M, "zones": [{"aps": [...], "zone": j}]}.

    Zones sorted by index, AP ids sorted ascending, so equal tables always
    serialize to identical bytes.
    """
    zones = [
        {"aps": sorted(key), "zone": zone}
        for key, zone in sorted(table.entries.items(), key=lambda kv: kv[1])
    ]
    payload = {
        "n_aps": table.ap_count,
        "m": table.strongest_count,
        "zones": zones,
    }
    return json.dumps(payload, indent=2) + "\n"


def zone_table_from_json(text: str) -> ZoneTable:
    payload = json.loads(text)
    entries = {frozenset(entry["aps"]): entry["zone"] for entry in payload["zones"]}
    return ZoneTable(
        entries=entries,
        ap_count=payload["n_aps"],
        strongest_count=payload["m"],
    )


def save_zone_table(table: ZoneTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(zone_table_to_json(table))


def load_zone_table(path) -> ZoneTable:
    with open(path, "r", encoding="utf-8") as fh:
        return zone_table_from_json(fh.read())


def assign_zones(
    table: ZoneTable, fingerprints: Sequence[Fingerprint]
) -> tuple[List[int], int, int]:
    """Look up many fingerprints; returns (zones, n_insufficient, n_unmatched).

    Users whose rows cannot be mapped are excluded (a real aggregator never
    hears from them) and tallied per cause. ``zones`` keeps input order.
    """
    rows = [fp.rssi for fp in fingerprints]
    for width in {row.size for row in rows}:
        _check_width(width, table)
    if not rows:
        return [], 0, 0
    ids = _strongest_sets(
        np.concatenate(rows).reshape(len(rows), table.ap_count), table.strongest_count
    )
    zones = _zones_of(table, ids)
    matched = zones[zones >= 0]
    return matched.tolist(), len(rows) - len(ids), len(ids) - len(matched)
