"""Core type validation and the small combinatorial helpers."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from zoneldp.domain import (
    SENTINEL_RSSI,
    Fingerprint,
    FrequencyEstimate,
    PrivacyParams,
    ZoneTable,
    max_zone_count,
    rssi_matrix,
)


class TestFingerprint:
    def test_accepts_plain_lists(self):
        fp = Fingerprint(rssi=[-40, -60.5, SENTINEL_RSSI])
        assert fp.rssi.dtype == np.float64
        assert fp.rssi.shape == (3,)

    def test_rejects_below_sentinel(self):
        with pytest.raises(ValueError):
            Fingerprint(rssi=[-40.0, -120.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        # -inf is below the sentinel; NaN and +inf would sort as strongest
        with pytest.raises(ValueError):
            Fingerprint(rssi=[bad, -40.0, -50.0])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            Fingerprint(rssi=[])
        with pytest.raises(ValueError):
            Fingerprint(rssi=[[-40.0, -50.0]])

    @pytest.mark.parametrize("scalar", [-40.0, np.float64(-40.0), np.array(-40.0)])
    def test_rejects_a_scalar(self, scalar):
        with pytest.raises(ValueError, match="nonempty 1-d"):
            Fingerprint(rssi=scalar)

    def test_rssi_is_readonly(self):
        fp = Fingerprint(rssi=[-40.0, -50.0])
        with pytest.raises(ValueError):
            fp.rssi[0] = 0.0


class TestRssiMatrix:
    ROWS = [[-40.0, -60.5, SENTINEL_RSSI], [-70.0, -41.0, -45.0]]

    def test_a_sequence_and_a_matrix_give_the_same_matrix(self):
        joined = rssi_matrix([Fingerprint(rssi=row) for row in self.ROWS])
        given = rssi_matrix(np.array(self.ROWS))
        for matrix in (joined, given):
            assert matrix.dtype == np.float64 and matrix.shape == (2, 3)
            assert not matrix.flags.writeable
        assert np.array_equal(joined, given)
        assert rssi_matrix(np.array([[-40, -60]])).dtype == np.float64

    def test_a_writable_matrix_is_copied(self):
        rows = np.array(self.ROWS)
        matrix = rssi_matrix(rows)
        rows[0, 0] = np.nan
        assert matrix[0, 0] == -40.0
        assert rows.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, SENTINEL_RSSI - 1])
    def test_a_matrix_obeys_the_rssi_rule(self, bad):
        rows = np.array(self.ROWS)
        rows[1, 2] = bad
        with pytest.raises(ValueError, match="rssi values"):
            rssi_matrix(rows)
        with pytest.raises(ValueError, match="rssi values"):
            Fingerprint(rssi=rows[1])

    def test_widths_must_agree(self):
        rows = [Fingerprint(rssi=[-40.0, -50.0]), Fingerprint(rssi=[-40.0, -50.0, -60.0])]
        with pytest.raises(ValueError, match=r"inconsistent AP counts: \[2, 3\]"):
            rssi_matrix(rows)
        with pytest.raises(ValueError, match="rssi length 3 does not match AP count 2"):
            rssi_matrix(rows, 2)
        with pytest.raises(ValueError, match="rssi length 3 does not match AP count 4"):
            rssi_matrix(np.array(self.ROWS), 4)

    def test_strided_vectors_join_like_stack(self):
        # columns of a matrix, a reversed row slice and a stepped one
        wide = np.random.default_rng(5).uniform(-100.0, -30.0, size=(7, 40))
        vectors = [wide[:, j] for j in range(40)] + [wide[0, :-8:-1], wide[1, :14:2]]
        rows = [Fingerprint(rssi=v) for v in vectors]
        assert np.array_equal(rssi_matrix(rows), np.stack(vectors))
        assert np.array_equal(rssi_matrix(rows, 7), np.stack(vectors))

    def test_a_join_keeps_nothing_per_row(self):
        # numpy keeps a 56-byte description with every array whose buffer
        # is exported, for the array's life: a join by b"".join of the
        # vectors would leave that behind on every row
        rows = [Fingerprint(rssi=r) for r in np.full((2000, 24), -50.0)]
        tracemalloc.start()
        try:
            rssi_matrix(rows)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2000 * 8

    def test_a_matrix_is_two_dimensional(self):
        with pytest.raises(ValueError, match="2-d"):
            rssi_matrix(np.array(self.ROWS[0]))

    def test_an_empty_sequence_has_the_given_width(self):
        assert rssi_matrix([], 3).shape == (0, 3)
        assert rssi_matrix(()).shape == (0, 0)


class TestMaxZoneCount:
    def test_known_values(self):
        # hand-checked binomials: C(9,3) and C(36,3)
        assert max_zone_count(9, 3) == 84
        assert max_zone_count(36, 3) == 7140

    def test_degenerate_choices(self):
        assert max_zone_count(5, 5) == 1
        assert max_zone_count(7, 1) == 7

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(1, n))
            assert max_zone_count(n, m) == max_zone_count(n, n - m)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            max_zone_count(0, 1)
        with pytest.raises(ValueError):
            max_zone_count(3, 0)
        with pytest.raises(ValueError):
            max_zone_count(3, 4)


class TestZoneTable:
    def test_valid_table(self):
        table = ZoneTable(
            entries={frozenset({0, 1}): 0, frozenset({1, 2}): 1},
            ap_count=3,
            strongest_count=2,
        )
        assert table.n_zones == 2

    def test_rejects_sparse_zone_indices(self):
        with pytest.raises(ValueError):
            ZoneTable(
                entries={frozenset({0, 1}): 0, frozenset({1, 2}): 2},
                ap_count=3,
                strongest_count=2,
            )

    def test_rejects_wrong_key_size(self):
        with pytest.raises(ValueError):
            ZoneTable(
                entries={frozenset({0}): 0}, ap_count=3, strongest_count=2
            )

    def test_rejects_ap_id_out_of_range(self):
        with pytest.raises(ValueError):
            ZoneTable(
                entries={frozenset({0, 5}): 0}, ap_count=3, strongest_count=2
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ZoneTable(entries={}, ap_count=3, strongest_count=2)

    @pytest.mark.parametrize("ap", [0.5, 1.0, True])
    def test_rejects_ap_id_that_is_not_an_integer(self, ap):
        with pytest.raises(ValueError, match="AP ids must be integers"):
            ZoneTable(
                entries={frozenset({ap, 2}): 0}, ap_count=4, strongest_count=2
            )

    def test_accepts_numpy_integer_ids(self):
        table = ZoneTable(
            entries={frozenset({np.int64(0), np.int32(1)}): np.int64(0)},
            ap_count=2,
            strongest_count=2,
        )
        assert table.n_zones == 1

    @pytest.mark.parametrize("zone", [0.0, 1.7])
    def test_rejects_zone_index_that_is_not_an_integer(self, zone):
        with pytest.raises(ValueError, match="zone indices must be integers"):
            ZoneTable(
                entries={frozenset({0, 1}): 0, frozenset({1, 2}): zone},
                ap_count=3,
                strongest_count=2,
            )

    def test_skipped_training_does_not_affect_equality(self):
        a = ZoneTable(
            entries={frozenset({0, 1}): 0}, ap_count=2, strongest_count=2
        )
        b = ZoneTable(
            entries={frozenset({0, 1}): 0},
            ap_count=2,
            strongest_count=2,
            skipped_training=5,
        )
        assert a == b


class TestPrivacyParams:
    def test_defaults(self):
        params = PrivacyParams()
        assert params.the_theta == 1.0
        assert (params.cms_k, params.cms_m) == (128, 1024)
        assert (params.rappor_k, params.rappor_m) == (64, 1024)
        # sizes only: the mechanism and epsilon travel next to the params
        assert [f.name for f in dataclasses.fields(PrivacyParams)] == [
            "the_theta", "cms_k", "cms_m", "rappor_k", "rappor_m"
        ]

    @pytest.mark.parametrize(
        "name, value",
        [
            ("cms_k", 0),
            ("rappor_m", 0),
            ("rappor_k", -2),
            ("cms_m", 1),  # the collision correction divides by m - 1
            ("cms_k", 1.5),
            ("cms_k", 8.0),
            ("rappor_m", "8"),
            ("cms_m", True),
            ("the_theta", math.nan),
            ("the_theta", math.inf),
            ("the_theta", "1.0"),
            ("the_theta", False),
        ],
    )
    def test_rejects_bad_sizes(self, name, value):
        with pytest.raises(ValueError, match=name):
            PrivacyParams(**{name: value})

    def test_accepts_integer_theta_and_numpy_sizes(self):
        params = PrivacyParams(the_theta=2, cms_k=np.int64(4), cms_m=2)
        assert (params.the_theta, params.cms_k, params.cms_m) == (2, 4, 2)


class TestFrequencyEstimate:
    def test_from_raw_clamps(self):
        est = FrequencyEstimate.from_raw(np.array([3.2, -1.5, 0.0]), 10)
        assert np.array_equal(est.clamped, [3.2, 0.0, 0.0])
        assert est.l_zones == 3
        assert est.n_reports == 10

    def test_rounded_is_half_up(self):
        est = FrequencyEstimate.from_raw(np.array([2.5, 0.49, 0.5, -0.3, 7.0]), 11)
        assert est.rounded().tolist() == [3, 0, 1, 0, 7]
        assert est.rounded().dtype == np.int64

    def test_rejects_mismatched_clamped(self):
        with pytest.raises(ValueError):
            FrequencyEstimate(
                raw=np.array([-1.0, 2.0]), clamped=np.array([-1.0, 2.0]), n_reports=2
            )

    def test_rejects_negative_report_count(self):
        with pytest.raises(ValueError):
            FrequencyEstimate.from_raw(np.array([1.0]), -1)

    def test_clamping_never_hurts_against_nonnegative_truth(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            raw = rng.normal(0.0, 5.0, size=6)
            truth = rng.integers(0, 10, size=6).astype(np.float64)
            est = FrequencyEstimate.from_raw(raw, 60)
            assert np.all(np.abs(est.clamped - truth) <= np.abs(est.raw - truth) + 1e-12)

    def test_from_raw_leaves_the_callers_array_writable(self):
        raw = np.array([3.0, -1.0, 2.0])
        est = FrequencyEstimate.from_raw(raw, 5)
        assert raw.flags.writeable
        raw[:] = 9.0
        assert est.raw.tolist() == [3.0, -1.0, 2.0]
        assert est.clamped.tolist() == [3.0, 0.0, 2.0]
        for values in (est.raw, est.clamped):
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_constructor_leaves_the_callers_arrays_writable(self):
        raw, clamped = np.array([-2.0, 4.0]), np.array([0.0, 4.0])
        est = FrequencyEstimate(raw=raw, clamped=clamped, n_reports=4)
        assert raw.flags.writeable and clamped.flags.writeable
        raw[:], clamped[:] = 7.0, 7.0
        assert est.raw.tolist() == [-2.0, 4.0]
        assert est.clamped.tolist() == [0.0, 4.0]

    def test_a_readonly_estimate_is_shared_not_copied(self):
        est = FrequencyEstimate.from_raw(np.array([1.0, -1.0]), 2)
        again = FrequencyEstimate(raw=est.raw, clamped=est.clamped, n_reports=2)
        assert again.raw is est.raw and again.clamped is est.clamped
