"""Zone division: strongest-AP sets, table building, lookup, serialization."""
import importlib.util
import json
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from zoneldp import zoning
from zoneldp.domain import SENTINEL_RSSI, Fingerprint, max_zone_count
from zoneldp.errors import EmptyTable, InsufficientSignals
from zoneldp.zoning import (
    ZoneTable,
    assign_zones,
    build_zone_table,
    load_zone_table,
    lookup_zone,
    strongest_aps,
    zone_table_from_json,
    zone_table_to_json,
)


class TestStrongestAps:
    def test_picks_largest_rssi(self):
        assert strongest_aps(np.array([-70.0, -40.0, -55.0, -90.0]), 2) == {1, 2}

    def test_ties_break_to_lower_ap_id(self):
        assert strongest_aps(np.array([-50.0, -50.0, -50.0]), 2) == {0, 1}

    def test_sentinel_entries_do_not_count_as_sensed(self):
        rssi = np.array([SENTINEL_RSSI, -80.0, SENTINEL_RSSI])
        with pytest.raises(InsufficientSignals):
            strongest_aps(rssi, 2)
        assert strongest_aps(rssi, 1) == {1}

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            strongest_aps(np.array([-50.0]), 0)

    def test_result_is_set_valued(self):
        rssi = np.array([-45.0, -60.0, -30.0, -90.0])
        assert strongest_aps(rssi, 3) == frozenset({0, 1, 2})


class TestBuildZoneTable:
    def _grid(self):
        # four training points with three distinct strongest-pairs
        return [
            Fingerprint(rssi=[-40.0, -45.0, -90.0]),
            Fingerprint(rssi=[-42.0, -44.0, -88.0]),
            Fingerprint(rssi=[-90.0, -45.0, -40.0]),
            Fingerprint(rssi=[-44.0, -90.0, -41.0]),
        ]

    def test_first_seen_order_and_dense_indices(self):
        table = build_zone_table(self._grid(), m=2)
        assert table.n_zones == 3
        assert table.entries[frozenset({0, 1})] == 0
        assert table.entries[frozenset({1, 2})] == 1
        assert table.entries[frozenset({0, 2})] == 2

    def test_rows_with_too_few_signals_are_skipped_and_counted(self):
        training = self._grid() + [
            Fingerprint(rssi=[-50.0, SENTINEL_RSSI, SENTINEL_RSSI])
        ]
        table = build_zone_table(training, m=2)
        assert table.n_zones == 3
        assert table.skipped_training == 1

    def test_empty_training_raises(self):
        with pytest.raises(EmptyTable):
            build_zone_table([], m=2)

    def test_all_rows_skipped_raises(self):
        training = [Fingerprint(rssi=[-50.0, SENTINEL_RSSI])]
        with pytest.raises(EmptyTable):
            build_zone_table(training, m=2)

    def test_inconsistent_widths_raise(self):
        training = [
            Fingerprint(rssi=[-40.0, -50.0]),
            Fingerprint(rssi=[-40.0, -50.0, -60.0]),
        ]
        with pytest.raises(ValueError):
            build_zone_table(training, m=2)

    def test_m_larger_than_ap_count_raises(self):
        with pytest.raises(ValueError):
            build_zone_table([Fingerprint(rssi=[-40.0, -50.0])], m=3)

    def test_zone_count_respects_combinatorial_bound(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            training = [
                Fingerprint(rssi=rng.uniform(-100.0, -30.0, size=9))
                for _ in range(200)
            ]
            table = build_zone_table(training, m=3)
            assert 1 <= table.n_zones <= max_zone_count(9, 3)

    def test_training_rows_look_up_to_their_own_zone(self):
        rng = np.random.default_rng(17)
        training = [
            Fingerprint(rssi=rng.uniform(-100.0, -30.0, size=9)) for _ in range(100)
        ]
        table = build_zone_table(training, m=3)
        for fp in training:
            zone = lookup_zone(table, fp.rssi)
            assert zone == table.entries[strongest_aps(fp.rssi, 3)]


class TestLookup:
    def test_known_and_unknown_sets(self):
        table = build_zone_table(
            [
                Fingerprint(rssi=[-40.0, -45.0, -90.0]),
                Fingerprint(rssi=[-90.0, -45.0, -40.0]),
            ],
            m=2,
        )
        assert lookup_zone(table, np.array([-41.0, -44.0, -99.0])) == 0
        assert lookup_zone(table, np.array([-30.0, -90.0, -35.0])) is None

    def test_wrong_vector_length_raises(self):
        table = build_zone_table([Fingerprint(rssi=[-40.0, -45.0])], m=2)
        with pytest.raises(ValueError):
            lookup_zone(table, np.array([-40.0, -45.0, -50.0]))

    @pytest.mark.parametrize(
        "rssi",
        [[np.inf, -90.0, -40.0], [np.nan, -45.0, -40.0], [-40.0, SENTINEL_RSSI - 1, -45.0]],
    )
    def test_rejects_what_a_fingerprint_rejects(self, rssi):
        # the raw vector gets the Fingerprint checks; unchecked, +inf ranks
        # strongest and NaN counts as not sensed, so both rows map to a zone
        table = build_zone_table(
            [
                Fingerprint(rssi=[-40.0, -45.0, -90.0]),
                Fingerprint(rssi=[-90.0, -45.0, -40.0]),
                Fingerprint(rssi=[-40.0, -90.0, -45.0]),
            ],
            m=2,
        )
        with pytest.raises(ValueError, match="rssi values"):
            lookup_zone(table, np.array(rssi))
        # finite rows, the sentinel included, map as before
        assert lookup_zone(table, np.array([-90.0, -45.0, -40.0])) == 1
        assert lookup_zone(table, np.array([-41.0, -44.0, SENTINEL_RSSI])) == 0
        assert lookup_zone(table, np.array([-30.0, -90.0, -35.0])) == 2
        with pytest.raises(InsufficientSignals):
            lookup_zone(table, np.array([-40.0, SENTINEL_RSSI, SENTINEL_RSSI]))

    def test_the_callers_reading_stays_writable(self):
        # the reading is copied into a one-row matrix, not frozen in place
        table = build_zone_table([Fingerprint(rssi=[-40.0, -45.0, -90.0])], m=2)
        reading = np.array([-41.0, -44.0, -99.0])
        assert lookup_zone(table, reading) == 0
        assert reading.flags.writeable
        reading[2] = -30.0
        assert lookup_zone(table, reading) is None

    @pytest.mark.parametrize("rssi", [[], [[-40.0, -45.0]]], ids=["empty", "2-d"])
    def test_a_reading_is_a_nonempty_vector(self, rssi):
        table = build_zone_table([Fingerprint(rssi=[-40.0, -45.0])], m=2)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            lookup_zone(table, np.array(rssi))

    def test_partition_is_permutation_invariant(self):
        # zone membership depends on the set of strongest ids only, so two
        # users whose vectors share that set always land together
        rng = np.random.default_rng(3)
        training = [
            Fingerprint(rssi=rng.uniform(-100.0, -30.0, size=6)) for _ in range(50)
        ]
        table = build_zone_table(training, m=2)
        for fp in training[:10]:
            noisy = fp.rssi + rng.uniform(-0.5, 0.5, size=6)
            if strongest_aps(noisy, 2) == strongest_aps(fp.rssi, 2):
                assert lookup_zone(table, noisy) == lookup_zone(table, fp.rssi)


def listed(result):
    """``assign_zones``' result with its zones, a 1-d int64 array, as a list."""
    zones, insufficient, unmatched = result
    assert isinstance(zones, np.ndarray) and zones.dtype == np.int64 and zones.ndim == 1
    return zones.tolist(), insufficient, unmatched


class TestAssignZones:
    def test_counts_drops_by_cause(self):
        table = build_zone_table(
            [Fingerprint(rssi=[-40.0, -45.0, -90.0])], m=2
        )
        fingerprints = [
            Fingerprint(rssi=[-41.0, -42.0, -80.0]),  # maps to zone 0
            Fingerprint(rssi=[-90.0, -41.0, -40.0]),  # unknown set
            Fingerprint(rssi=[-40.0, SENTINEL_RSSI, SENTINEL_RSSI]),  # too few
        ]
        zones, insufficient, unmatched = listed(assign_zones(table, fingerprints))
        assert zones == [0]
        assert insufficient == 1
        assert unmatched == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, SENTINEL_RSSI - 1])
    def test_a_matrix_obeys_the_rssi_rule(self, bad):
        rssi = np.array([[-40.0, -45.0, -90.0], [-41.0, -42.0, -80.0]])
        table = build_zone_table(rssi, m=2)
        rssi[1, 2] = bad
        with pytest.raises(ValueError, match="rssi values"):
            build_zone_table(rssi, m=2)
        with pytest.raises(ValueError, match="rssi values"):
            assign_zones(table, rssi)

    def test_zones_are_a_fresh_writable_int64_array(self):
        rssi = np.random.default_rng(7).uniform(-100.0, -30.0, size=(300, 6))
        table = build_zone_table(rssi[:150], m=2)
        from_matrix, *drops = assign_zones(table, rssi)
        from_rows, *row_drops = assign_zones(table, [Fingerprint(rssi=r) for r in rssi])
        for zones in (from_matrix, from_rows):
            assert zones.dtype == np.int64 and zones.ndim == 1 and zones.flags.writeable
        assert np.array_equal(from_matrix, from_rows) and drops == row_drops
        assert from_matrix.size > 150
        from_matrix[0] += 1  # the caller's own copy: the next lookup is unchanged
        assert np.array_equal(assign_zones(table, rssi)[0], from_rows)

    def test_an_empty_matrix_is_an_empty_input(self):
        table = build_zone_table(np.array([[-40.0, -45.0, -90.0]]), m=2)
        assert listed(assign_zones(table, np.empty((0, 3)))) == ([], 0, 0)
        with pytest.raises(EmptyTable):
            build_zone_table(np.empty((0, 3)), m=2)


class TestSerialization:
    def _table(self):
        rng = np.random.default_rng(29)
        training = [
            Fingerprint(rssi=rng.uniform(-100.0, -30.0, size=7)) for _ in range(60)
        ]
        return build_zone_table(training, m=3)

    def test_json_round_trip(self):
        table = self._table()
        clone = zone_table_from_json(zone_table_to_json(table))
        assert clone == table
        assert clone.ap_count == table.ap_count
        assert clone.strongest_count == table.strongest_count

    def test_equal_tables_serialize_to_identical_bytes(self):
        table = self._table()
        # the rows reversed within, in another integer dtype
        clone = ZoneTable(
            aps=table.aps[:, ::-1].astype(np.int32),
            ap_count=table.ap_count,
            strongest_count=table.strongest_count,
        )
        assert zone_table_to_json(clone) == zone_table_to_json(table)
        # the JSON entries listed last zone first, each row descending
        payload = json.loads(zone_table_to_json(table))
        for entry in payload["zones"]:
            entry["aps"].reverse()
        payload["zones"].reverse()
        read = zone_table_from_json(json.dumps(payload))
        assert zone_table_to_json(read) == zone_table_to_json(table)

    def test_file_round_trip(self, tmp_path):
        table = self._table()
        path = tmp_path / "table.json"
        path.write_text(zone_table_to_json(table), encoding="utf-8")
        assert load_zone_table(path) == table

    @pytest.mark.parametrize(
        "text,message",
        [
            # 0.5 would truncate to AP 0 in an integer key and match {0, 1}
            ('{"n_aps": 4, "m": 2, "zones": [{"aps": [0.5, 1], "zone": 0}]}',
             "AP ids must be integers"),
            ('{"n_aps": 4, "m": 2, "zones": [{"aps": [1.7, 1], "zone": 0}]}',
             "AP ids must be integers"),
            ('{"n_aps": 4, "m": 2, "zones": [{"aps": [true, 2], "zone": 0}]}',
             "AP ids must be integers"),
            ('{"n_aps": 4, "m": 2, "zones": [{"aps": [0, 1], "zone": 0},'
             ' {"aps": [1, 2], "zone": 1.7}]}',
             "zone indices must be integers"),
            ('{"n_aps": 4, "m": 2, "zones": [{"aps": [0, 1], "zone": 0.5}]}',
             "zone indices must be integers"),
            ('{"n_aps": 4, "m": 2, "zones": [{"aps": [0, 1], "zone": true}]}',
             "zone indices must be integers"),
            ('{"n_aps": 4.5, "m": 2, "zones": [{"aps": [0, 1], "zone": 0}]}',
             "must be integers"),
            ('{"n_aps": 4, "m": 2.0, "zones": [{"aps": [0, 1], "zone": 0}]}',
             "must be integers"),
        ],
    )
    def test_json_rejects_values_that_are_not_integers(self, text, message):
        with pytest.raises(ValueError, match=message):
            zone_table_from_json(text)

    def test_json_rejects_a_repeated_entry(self):
        # the same set twice under zone 0 would otherwise load as one zone
        text = ('{"n_aps": 4, "m": 2, "zones": [{"aps": [0, 1], "zone": 0},'
                ' {"aps": [1, 0], "zone": 0}]}')
        with pytest.raises(ValueError, match="dense"):
            zone_table_from_json(text)

    def test_json_rejects_a_set_under_two_zones(self):
        text = ('{"n_aps": 4, "m": 2, "zones": [{"aps": [0, 1], "zone": 0},'
                ' {"aps": [1, 0], "zone": 1}]}')
        with pytest.raises(ValueError, match="more than one zone"):
            zone_table_from_json(text)

    def test_json_normalises_an_unsorted_row(self):
        table = zone_table_from_json(
            '{"n_aps": 4, "m": 2, "zones": [{"aps": [3, 0], "zone": 1},'
            ' {"aps": [2, 1], "zone": 0}]}'
        )
        assert table.aps.tolist() == [[1, 2], [0, 3]]
        assert json.loads(zone_table_to_json(table))["zones"][1] == {"aps": [0, 3], "zone": 1}

    def test_pickles_before_and_after_entries_are_read(self):
        table = self._table()
        assert pickle.loads(pickle.dumps(table)) == table
        entries = table.entries
        assert table.entries is entries  # built once, not on each access
        with pytest.raises(TypeError):
            entries[frozenset({0, 1, 2})] = 0
        clone = pickle.loads(pickle.dumps(table))
        assert clone == table and clone.entries == entries
        assert clone.skipped_training == table.skipped_training

    def test_json_shape(self):
        table = build_zone_table(
            [Fingerprint(rssi=[-40.0, -45.0, -90.0])], m=2
        )
        payload = json.loads(zone_table_to_json(table))
        assert payload == {
            "n_aps": 3,
            "m": 2,
            "zones": [{"aps": [0, 1], "zone": 0}],
        }


def reference_entries(training, m):
    """Plain-Python table build: first-seen zones of ``strongest_aps`` sets."""
    entries, skipped = {}, 0
    for fp in training:
        try:
            key = strongest_aps(fp.rssi, m)
        except InsufficientSignals:
            skipped += 1
            continue
        entries.setdefault(key, len(entries))
    return entries, skipped


def reference_zone(table, rssi):
    """Plain-Python lookup of one row: a zone, None, or "insufficient"."""
    try:
        return table.entries.get(strongest_aps(rssi, table.strongest_count))
    except InsufficientSignals:
        return "insufficient"


def tied_rows(rng, n, width):
    """Integer-valued RSSI rows, so ties are common, with sentinel cells and rows."""
    rssi = rng.integers(-56, -50, size=(n, width)).astype(np.float64)
    rssi[rng.random((n, width)) < 0.3] = SENTINEL_RSSI
    rssi[rng.random(n) < 0.05] = SENTINEL_RSSI
    return [Fingerprint(rssi=row) for row in rssi]


CASES = [(width, m) for width in (3, 24, 70) for m in (1, 2, 3, 4) if m <= width]


class TestArrayPassMatchesReference:
    @pytest.mark.parametrize("width,m", CASES)
    def test_build_matches_first_seen_loop(self, width, m):
        rng = np.random.default_rng([width, m])
        training = tied_rows(rng, 400, width)
        table = build_zone_table(training, m)
        entries, skipped = reference_entries(training, m)
        assert list(table.entries.items()) == list(entries.items())
        assert table.skipped_training == skipped
        expected = ZoneTable(
            aps=np.array([sorted(key) for key in entries]), ap_count=width, strongest_count=m
        )
        assert zone_table_to_json(table) == zone_table_to_json(expected)
        from_matrix = build_zone_table(np.stack([fp.rssi for fp in training]), m)
        assert zone_table_to_json(from_matrix) == zone_table_to_json(table)
        assert from_matrix.skipped_training == skipped

    @pytest.mark.parametrize("width,m", CASES)
    def test_lookup_matches_reference_row_for_row(self, width, m):
        rng = np.random.default_rng([width, m, 1])
        training = tied_rows(rng, 300, width)
        built = build_zone_table(training, m)
        # renumber the zones so first-seen order and zone order differ
        table = ZoneTable(aps=built.aps[::-1], ap_count=width, strongest_count=m)
        queries = training[::2] + tied_rows(rng, 300, width)
        expected = [reference_zone(table, fp.rssi) for fp in queries]

        zones, insufficient, unmatched = listed(assign_zones(table, tuple(queries)))
        matrix = np.stack([fp.rssi for fp in queries])
        assert listed(assign_zones(table, matrix)) == (zones, insufficient, unmatched)
        assert zones == [z for z in expected if isinstance(z, int)]
        assert insufficient == expected.count("insufficient")
        assert unmatched == expected.count(None)
        assert 0 < len(zones) and 0 < insufficient

        for fp, want in zip(queries, expected):
            if want == "insufficient":
                with pytest.raises(InsufficientSignals):
                    lookup_zone(table, fp.rssi)
            else:
                got = lookup_zone(table, fp.rssi)
                assert got == want and type(got) is type(want)

    def test_empty_input(self):
        table = build_zone_table([Fingerprint(rssi=[-40.0, -45.0, -90.0])], m=2)
        assert listed(assign_zones(table, [])) == ([], 0, 0)
        assert listed(assign_zones(table, ())) == ([], 0, 0)

    def test_wrong_width_names_both_widths(self):
        table = build_zone_table([Fingerprint(rssi=[-40.0, -45.0, -90.0])], m=2)
        rows = [Fingerprint(rssi=[-40.0, -45.0, -90.0]),
                Fingerprint(rssi=[-40.0, -45.0, -90.0, -50.0])]
        with pytest.raises(ValueError, match="rssi length 4 .*AP count 3"):
            assign_zones(table, rows)
        with pytest.raises(ValueError, match="rssi length 4 .*AP count 3"):
            assign_zones(table, rows[1:])


def sparse_rows(rng, n, width):
    """Rows like UJIIndoorLoc's: up to a dozen sensed APs among ``width``,
    integer dBm in a four-value band so ties are common, and some rows with
    fewer sensed APs than a lookup needs."""
    rssi = np.full((n, width), SENTINEL_RSSI)
    for row in rssi:
        sensed = rng.choice(width, size=rng.integers(0, 13), replace=False)
        row[sensed] = rng.integers(-60, -56, size=sensed.size)
    return rssi


class TestLookupExactness:
    """The lookup's zones and drop counts equal ``strongest_aps``' for any
    AP count, any m and keys that collide."""

    def check(self, table, rssi):
        expected = [reference_zone(table, row) for row in rssi]
        zones, insufficient, unmatched = listed(assign_zones(table, rssi))
        assert zones == [z for z in expected if isinstance(z, int)]
        assert insufficient == expected.count("insufficient")
        assert unmatched == expected.count(None)
        return expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_tied_rows_on_a_520_ap_table(self, m):
        rng = np.random.default_rng([520, m])
        training = sparse_rows(rng, 600, 520)
        table = build_zone_table(training, m)
        entries, skipped = reference_entries([Fingerprint(r) for r in training], m)
        assert list(table.entries.items()) == list(entries.items())
        assert table.skipped_training == skipped
        queries = np.concatenate([training[::3], sparse_rows(rng, 600, 520)])
        expected = self.check(table, queries)
        assert {type(z) for z in expected} == {int, type(None), str}

    def test_seven_strongest_of_forty_aps(self):
        rng = np.random.default_rng(40)
        training = tied_rows(rng, 400, 40)
        table = build_zone_table(training, 7)
        assert table.n_zones > 100
        queries = np.stack([fp.rssi for fp in training[::2] + tied_rows(rng, 400, 40)])
        expected = self.check(table, queries)
        assert {type(z) for z in expected} == {int, type(None), str}

    def test_every_key_colliding_costs_only_rounds(self, monkeypatch):
        rng = np.random.default_rng(41)
        training = tied_rows(rng, 300, 24)
        table = build_zone_table(training, 3)
        queries = np.stack([fp.rssi for fp in training + tied_rows(rng, 300, 24)])
        expected = self.check(table, queries)
        # every set keyed alike: the index is built with the table
        monkeypatch.setattr(
            zoning, "_ap_weights", lambda n_aps: np.full(n_aps, 7, dtype=np.uint64)
        )
        colliding = ZoneTable(aps=table.aps, ap_count=24, strongest_count=3)
        assert self.check(colliding, queries) == expected

    def test_the_index_is_built_once(self, monkeypatch):
        rng = np.random.default_rng(42)
        training = tied_rows(rng, 300, 24)
        table = build_zone_table(training, 3)
        queries = np.stack([fp.rssi for fp in training + tied_rows(rng, 300, 24)])

        def rebuilt(n_aps):
            raise AssertionError("the lookup index was built again")

        monkeypatch.setattr(zoning, "_ap_weights", rebuilt)
        expected = self.check(table, queries)
        assert self.check(table, queries) == expected
        row = next(i for i, z in enumerate(expected) if isinstance(z, int))
        assert lookup_zone(table, queries[row]) == expected[row]

    def test_an_mth_pick_at_the_sentinel_is_insufficient(self):
        s = SENTINEL_RSSI
        table = build_zone_table(np.array([[-50.0, -60.0, -70.0, s, s, s]]), m=3)
        rows = np.array([
            [-50.0, -60.0, -70.0, s, s, s],  # three sensed: zone 0
            [-50.0, -60.0, s, s, s, s],  # the third pick is AP 2 at the sentinel
            [s, s, s, s, -60.0, -50.0],  # sentinels tie below two sensed APs
            [s, s, s, s, s, s],
            [-50.0, s, -70.0, s, -60.0, s],  # three sensed, another set
        ])
        assert self.check(table, rows) == [0, "insufficient", "insufficient",
                                           "insufficient", None]
        for row in rows[1:4]:
            with pytest.raises(InsufficientSignals):
                lookup_zone(table, row)


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


class TestBenchmarkVenueLookup:
    """Agreement with the benchmark's own lookup on its synthetic venue."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_counts_equal_independent_lookup(self, seed):
        workloads = _benchmark_workloads()
        venue = workloads.Venue(seed)
        table = build_zone_table(
            [Fingerprint(rssi=row) for row in venue.survey], workloads.VENUE_M
        )
        window = venue.rssi(5000)
        zones, _, _ = assign_zones(table, tuple(Fingerprint(rssi=r) for r in window))
        counts, matched = workloads.reference_lookup(table, window)
        assert np.array_equal(np.bincount(zones, minlength=table.n_zones), counts)
        assert len(zones) == matched
