"""Fingerprint file ingestion and synthetic population generation.

Fingerprint files are delimited text with a header row. A small JSON schema
descriptor maps dataset-specific column names onto AP indices, so one loader
serves differently-shaped datasets:

    {
      "delimiter": ",",
      "rssi_columns": ["AP001", "AP002", ...],
      "x": "col" | null,
      "y": "col" | null,
      "floor": {"column": "col", "value": v} | null,
      "not_detected": "-110"
    }
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .domain import SENTINEL_RSSI, Fingerprint
from .errors import MalformedRow, SchemaMismatch


@dataclass(frozen=True)
class DatasetMeta:
    name: str
    n_aps: int
    n_users: int

    def __post_init__(self):
        if self.n_aps < 1 or self.n_users < 1:
            raise ValueError("n_aps and n_users must be >= 1")


def load_schema(path) -> dict:
    """Read and normalize a schema descriptor."""
    with open(path, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    return normalize_schema(schema)


def normalize_schema(schema: dict) -> dict:
    if "rssi_columns" not in schema or not schema["rssi_columns"]:
        raise SchemaMismatch("schema must list rssi_columns")
    out = {
        "delimiter": schema.get("delimiter", ","),
        "rssi_columns": list(schema["rssi_columns"]),
        "x": schema.get("x"),
        "y": schema.get("y"),
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


def load_fingerprints(path, schema: dict) -> Tuple[DatasetMeta, List[Fingerprint]]:
    """Parse one delimited fingerprint file into domain objects.

    Rows failing the optional floor filter are dropped silently; rows with
    unparseable cells raise MalformedRow with their 1-based line number.
    """
    schema = normalize_schema(schema)
    path = Path(path)
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

        def optional(colname):
            if colname is None:
                return None
            if colname not in positions:
                raise SchemaMismatch(f"missing column {colname!r}")
            return positions[colname]

        x_idx = optional(schema["x"])
        y_idx = optional(schema["y"])
        floor = schema["floor"]
        floor_idx = optional(floor["column"]) if floor else None
        floor_value = str(floor["value"]).strip() if floor else None

        marker = schema["not_detected"]
        fingerprints: List[Fingerprint] = []
        for row_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise MalformedRow(
                    row_number, f"expected {len(header)} cells, found {len(row)}"
                )
            if floor_idx is not None and row[floor_idx].strip() != floor_value:
                continue
            rssi = np.array(
                [
                    _parse_rssi(row[i], marker, row_number, header[i])
                    for i in rssi_idx
                ]
            )
            location = None
            if x_idx is not None and y_idx is not None:
                try:
                    location = (float(row[x_idx]), float(row[y_idx]))
                except ValueError:
                    raise MalformedRow(row_number, "bad coordinate value")
            fingerprints.append(Fingerprint(rssi=rssi, location=location))

    if not fingerprints:
        raise SchemaMismatch("no rows survived parsing and filtering")
    meta = DatasetMeta(
        name=path.stem,
        n_aps=len(schema["rssi_columns"]),
        n_users=len(fingerprints),
    )
    return meta, fingerprints


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
