"""
Dividing a floor into zones from Wi-Fi fingerprints
===================================================

A zone is the set of places that hear the same M access points loudest.
This walk-through builds a zone table from surveyed fingerprints, looks a
few rows up, and round-trips the table through its JSON form.
"""

import numpy as np

from zoneldp.domain import SENTINEL_RSSI, Fingerprint, max_zone_count
from zoneldp.zoning import (
    build_zone_table,
    lookup_zone,
    zone_table_from_json,
    zone_table_to_json,
)

rng = np.random.default_rng(42)

# Simulate a survey: 5 access points, 3 distinct radio neighborhoods, a
# handful of noisy fingerprints collected in each. Signal strengths are in
# dBm, so bigger (less negative) means louder.
centers = np.array(
    [
        [-40.0, -45.0, -70.0, -80.0, -90.0],
        [-85.0, -50.0, -42.0, -47.0, -88.0],
        [-90.0, -80.0, -75.0, -44.0, -41.0],
    ]
)
training = []
for center in centers:
    for _ in range(6):
        rssi = center + rng.normal(0.0, 1.5, size=5)
        training.append(Fingerprint(rssi=rssi))

# Keep the two strongest APs per fingerprint as the zone signature.
table = build_zone_table(training, m=2)
print(f"{len(training)} fingerprints -> {table.n_zones} zones "
      f"(at most {max_zone_count(5, 2)} possible with 5 APs)")

# Every surveyed row maps back into the zone it defined.
for fingerprint in training[::6]:
    zone = lookup_zone(table, fingerprint.rssi)
    strongest = np.argsort(fingerprint.rssi)[::-1][:2]
    print(f"  strongest APs {sorted(strongest.tolist())} -> zone {zone}")

# A reading that misses too many APs cannot be placed; the caller sees an
# exception rather than a silently wrong zone.
sparse = np.full(5, SENTINEL_RSSI)
sparse[2] = -60.0
try:
    lookup_zone(table, sparse)
except Exception as error:
    print("sparse reading rejected:", error)

# The table serializes to stable JSON, so clients and the aggregator can
# share one file and agree on zone ids byte for byte.
text = zone_table_to_json(table)
restored = zone_table_from_json(text)
print("round-trip preserves the table:", restored == table)
