"""Fingerprint file parsing, schema handling, synthetic populations."""
import json

import numpy as np
import pytest

from zoneldp import dataio
from zoneldp.dataio import (
    load_fingerprints,
    load_schema,
    normalize_schema,
    synth_population,
)
from zoneldp.domain import SENTINEL_RSSI
from zoneldp.errors import MalformedRow, SchemaMismatch

# "x" and "y" name coordinate columns, which the loader ignores as it does
# every key it does not read
SCHEMA = {
    "delimiter": ",",
    "rssi_columns": ["AP1", "AP2", "AP3"],
    "x": "x",
    "y": "y",
    "floor": None,
    "not_detected": "-110",
}


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_normalize_fills_defaults(self):
        schema = normalize_schema({"rssi_columns": ["A"]})
        assert schema["delimiter"] == ","
        assert schema["floor"] is None
        assert schema["not_detected"] == ""

    def test_missing_rssi_columns_raises(self):
        with pytest.raises(SchemaMismatch):
            normalize_schema({})
        with pytest.raises(SchemaMismatch):
            normalize_schema({"rssi_columns": []})

    def test_floor_filter_needs_column(self):
        with pytest.raises(SchemaMismatch):
            normalize_schema({"rssi_columns": ["A"], "floor": {"value": 1}})

    def test_unread_keys_are_dropped(self):
        assert normalize_schema(SCHEMA) == normalize_schema(
            {k: v for k, v in SCHEMA.items() if k not in ("x", "y")}
        )

    def test_load_schema_from_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(SCHEMA), encoding="utf-8")
        assert load_schema(path)["rssi_columns"] == ["AP1", "AP2", "AP3"]


class TestLoadFingerprints:
    def test_happy_path(self, tmp_path):
        path = write_csv(
            tmp_path,
            "x,y,AP1,AP2,AP3\n"
            "1.0,2.0,-40,-55.5,-80\n"
            "3.0,4.0,-60,-110,-45\n",
        )
        rssi = load_fingerprints(path, SCHEMA)
        assert rssi.dtype == np.float64
        assert rssi.tolist() == [[-40.0, -55.5, -80.0], [-60.0, SENTINEL_RSSI, -45.0]]
        with pytest.raises(ValueError):
            rssi[0, 0] = 0.0  # read-only

    def test_marker_and_empty_cells_become_sentinel(self, tmp_path):
        path = write_csv(
            tmp_path, "x,y,AP1,AP2,AP3\n1,2,-110,,-50\n"
        )
        rssi = load_fingerprints(path, SCHEMA)
        assert rssi[0].tolist() == [SENTINEL_RSSI, SENTINEL_RSSI, -50.0]

    def test_below_sentinel_values_are_floored(self, tmp_path):
        path = write_csv(tmp_path, "x,y,AP1,AP2,AP3\n1,2,-200,-40,-50\n")
        assert load_fingerprints(path, SCHEMA)[0, 0] == SENTINEL_RSSI

    def test_minus_inf_counts_as_not_sensed(self, tmp_path):
        path = write_csv(tmp_path, "x,y,AP1,AP2,AP3\n1,2,-inf,-40,-50\n")
        assert load_fingerprints(path, SCHEMA)[0, 0] == SENTINEL_RSSI

    @pytest.mark.parametrize("cell", ["nan", "inf", "+inf", "NaN"])
    def test_nan_and_plus_inf_raise_with_row_number(self, tmp_path, cell):
        path = write_csv(
            tmp_path, f"x,y,AP1,AP2,AP3\n1,2,-40,-50,-60\n1,2,-40,-50,{cell}\n"
        )
        with pytest.raises(MalformedRow) as err:
            load_fingerprints(path, SCHEMA)
        assert err.value.row_number == 3
        assert "AP3" in err.value.detail

    def test_floor_filter_keeps_matching_rows_only(self, tmp_path):
        schema = dict(SCHEMA, floor={"column": "level", "value": 2})
        path = write_csv(
            tmp_path,
            "x,y,level,AP1,AP2,AP3\n"
            "1,2,2,-40,-50,-60\n"
            "1,2,3,-41,-51,-61\n"
            "1,2,2,-42,-52,-62\n",
        )
        rssi = load_fingerprints(path, schema)
        assert rssi[:, 0].tolist() == [-40.0, -42.0]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write_csv(
            tmp_path, "x,y,AP1,AP2,AP3\n\n1,2,-40,-50,-60\n  , , , , \n"
        )
        assert load_fingerprints(path, SCHEMA).shape == (1, 3)

    def test_unparseable_cell_raises_with_row_number(self, tmp_path):
        path = write_csv(
            tmp_path, "x,y,AP1,AP2,AP3\n1,2,-40,-50,-60\n1,2,-40,junk,-60\n"
        )
        with pytest.raises(MalformedRow) as err:
            load_fingerprints(path, SCHEMA)
        assert err.value.row_number == 3
        assert "AP2" in err.value.detail

    def test_a_bad_cell_in_a_row_of_numbers_is_named(self, tmp_path):
        path = write_csv(tmp_path, "x,y,AP1,AP2,AP3\n1,2,-40,-50,-60\n1,2,-60,-40,- 50\n")
        with pytest.raises(MalformedRow) as err:
            load_fingerprints(path, SCHEMA)
        assert err.value.row_number == 3
        assert "AP3" in err.value.detail and "'- 50'" in err.value.detail

    @pytest.mark.parametrize("marker", ["-110", "100", "NA", ""])
    def test_rows_parse_as_each_cell_does(self, tmp_path, marker):
        # spacing, padded and rewritten markers, empty cells, values at and
        # below the sentinel: a row parsed at once reads as cell by cell
        texts = ["-40", " -40", "-40.0", "-110", " -110 ", "", "  ", "-200", "-inf",
                 "-55.5", "100", " 100", "100.0"]
        if marker == "NA":
            texts += ["NA", " NA "]
        rows = np.random.default_rng(7).choice(texts, size=(300, 3))
        body = "".join(f"1,2,{','.join(row)}\n" for row in rows)
        rssi = load_fingerprints(
            write_csv(tmp_path, "x,y,AP1,AP2,AP3\n" + body),
            dict(SCHEMA, not_detected=marker),
        )
        want = [[dataio._parse_rssi(cell, marker, 2, "AP") for cell in row] for row in rows]
        assert rssi.tolist() == want

    def test_short_row_raises(self, tmp_path):
        path = write_csv(tmp_path, "x,y,AP1,AP2,AP3\n1,2,-40\n")
        with pytest.raises(MalformedRow):
            load_fingerprints(path, SCHEMA)

    def test_coordinate_columns_are_not_read(self, tmp_path):
        path = write_csv(tmp_path, "x,y,AP1,AP2,AP3\nnorth,,-40,-50,-60\n")
        assert load_fingerprints(path, SCHEMA).tolist() == [[-40.0, -50.0, -60.0]]

    def test_missing_rssi_column_raises(self, tmp_path):
        path = write_csv(tmp_path, "x,y,AP1,AP2\n1,2,-40,-50\n")
        with pytest.raises(SchemaMismatch):
            load_fingerprints(path, SCHEMA)

    def test_headerless_empty_file_raises(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(SchemaMismatch):
            load_fingerprints(path, SCHEMA)

    def test_no_surviving_rows_raises(self, tmp_path):
        schema = dict(SCHEMA, floor={"column": "level", "value": 9})
        path = write_csv(tmp_path, "x,y,level,AP1,AP2,AP3\n1,2,1,-40,-50,-60\n")
        with pytest.raises(SchemaMismatch):
            load_fingerprints(path, schema)

    def test_round_trip_is_lossless_for_in_range_values(self, tmp_path):
        rng = np.random.default_rng(31)
        rows = rng.uniform(-100.0, -30.0, size=(20, 3))
        lines = ["x,y,AP1,AP2,AP3"]
        for i, row in enumerate(rows):
            cells = ",".join(repr(float(v)) for v in row)
            lines.append(f"{i},{i},{cells}")
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        assert np.array_equal(load_fingerprints(path, SCHEMA), rows)

    def test_tab_delimiter(self, tmp_path):
        schema = dict(SCHEMA, delimiter="\t")
        path = write_csv(tmp_path, "x\ty\tAP1\tAP2\tAP3\n1\t2\t-40\t-50\t-60\n")
        assert load_fingerprints(path, schema).tolist() == [[-40.0, -50.0, -60.0]]


class TestSynthPopulation:
    def test_histogram_matches_counts_exactly(self):
        rng = np.random.default_rng(7)
        counts = [6, 9, 11, 17, 17, 81, 88, 125]
        users = synth_population(counts, rng)
        assert users.size == 354
        assert np.bincount(users, minlength=8).tolist() == counts

    def test_all_users_in_one_zone(self):
        rng = np.random.default_rng(7)
        users = synth_population([0, 5, 0], rng)
        assert users.tolist() == [1, 1, 1, 1, 1]

    def test_shuffle_is_seeded(self):
        counts = [10, 10, 10]
        a = synth_population(counts, np.random.default_rng(1))
        b = synth_population(counts, np.random.default_rng(1))
        c = synth_population(counts, np.random.default_rng(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)  # 30!/(10!^3) arrangements, collision odds nil

    def test_rejects_bad_counts(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            synth_population([], rng)
        with pytest.raises(ValueError):
            synth_population([-1, 5], rng)
        with pytest.raises(ValueError):
            synth_population([0, 0], rng)
