"""Fingerprint file ingestion and synthetic population generation.

Fingerprint files are delimited text with a header row. A small JSON schema
descriptor maps dataset-specific column names onto AP indices, so one loader
serves differently-shaped datasets:

    {
      "delimiter": ",",
      "rssi_columns": ["AP001", "AP002", ...],
      "floor": {"column": "col", "value": v} | null,
      "not_detected": "-110"
    }
"""
from __future__ import annotations

import csv
import json
import math
from array import array
from typing import Sequence

import numpy as np

from .domain import SENTINEL_RSSI
from .errors import MalformedRow, SchemaMismatch


def load_schema(path) -> dict:
    """Read and normalize a schema descriptor."""
    with open(path, "r", encoding="utf-8") as fh:
        return normalize_schema(json.load(fh))


def normalize_schema(schema: dict) -> dict:
    """The keys the loader reads, with their defaults; other keys are ignored."""
    if "rssi_columns" not in schema or not schema["rssi_columns"]:
        raise SchemaMismatch("schema must list rssi_columns")
    out = {
        "delimiter": schema.get("delimiter", ","),
        "rssi_columns": list(schema["rssi_columns"]),
        "floor": schema.get("floor"),
        "not_detected": str(schema.get("not_detected", "")),
    }
    if out["floor"] is not None and "column" not in out["floor"]:
        raise SchemaMismatch("floor filter needs a column name")
    return out


def _parse_rssi(cell: str, marker: str, row_number: int, column: str) -> float:
    text = cell.strip()
    if text == "" or (marker and text == marker):
        return SENTINEL_RSSI
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(row_number, f"column {column!r}: not a number: {text!r}")
    if math.isnan(value) or value == math.inf:
        raise MalformedRow(row_number, f"column {column!r}: not a finite RSSI: {text!r}")
    # anything at or below the sentinel level counts as not sensed
    return value if value > SENTINEL_RSSI else SENTINEL_RSSI


def load_fingerprints(path, schema: dict) -> np.ndarray:
    """Parse one delimited fingerprint file into a read-only (n, APs)
    float64 RSSI matrix, one row per kept file row and one column per
    schema RSSI column, in schema order.

    Rows failing the optional floor filter are dropped silently; rows with
    unparseable cells raise MalformedRow with their 1-based line number.
    A row's RSSI cells go through ``float`` in one pass; a row that pass
    cannot take as it is (a bad cell, NaN or an infinity, a padded marker)
    is parsed cell by cell, which names a bad cell.
    """
    schema = normalize_schema(schema)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=schema["delimiter"])
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch("file has no header row")
        header = [h.strip() for h in header]
        positions = {name: i for i, name in enumerate(header)}

        missing = [c for c in schema["rssi_columns"] if c not in positions]
        if missing:
            raise SchemaMismatch(f"missing RSSI columns: {missing}")
        rssi_idx = [positions[c] for c in schema["rssi_columns"]]

        floor = schema["floor"]
        if floor is not None and floor["column"] not in positions:
            raise SchemaMismatch(f"missing column {floor['column']!r}")
        floor_idx = positions[floor["column"]] if floor else None
        floor_value = str(floor["value"]).strip() if floor else None

        marker = schema["not_detected"]
        # empty and marker cells reach float() as the sentinel
        not_sensed = {"": SENTINEL_RSSI, marker: SENTINEL_RSSI}
        # a marker float() reads above the sentinel, such as "100": a cell of
        # that value may be a padded marker text
        try:
            raised = float(marker) if float(marker) > SENTINEL_RSSI else None
        except ValueError:
            raised = None
        values = array("d")  # row after row, 8 bytes a cell
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise MalformedRow(
                    row_number, f"expected {len(header)} cells, found {len(row)}"
                )
            if floor_idx is not None and row[floor_idx].strip() != floor_value:
                continue
            cells = list(map(row.__getitem__, rssi_idx))
            try:
                parsed = list(map(float, map(not_sensed.get, cells, cells)))
                # a finite sum: no NaN and no infinity
                whole = math.isfinite(sum(parsed)) and (raised is None or raised not in parsed)
            except ValueError:
                whole = False
            if not whole:
                parsed = [_parse_rssi(row[i], marker, row_number, header[i]) for i in rssi_idx]
            values.extend(parsed)

    if not values:
        raise SchemaMismatch("no rows survived parsing and filtering")
    matrix = np.frombuffer(values, dtype=np.float64).reshape(-1, len(rssi_idx))
    # anything at or below the sentinel level counts as not sensed
    np.maximum(matrix, SENTINEL_RSSI, out=matrix)
    matrix.setflags(write=False)
    return matrix


def synth_population(zone_counts: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Shuffled per-user zone indices with exactly counts[j] users in zone j."""
    counts = np.asarray(zone_counts, dtype=np.int64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("zone_counts must be a nonempty 1-d vector")
    if np.any(counts < 0):
        raise ValueError("zone counts must be nonnegative")
    if counts.sum() < 1:
        raise ValueError("population must have at least one user")
    users = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    rng.shuffle(users)
    return users
