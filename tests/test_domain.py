"""Core type validation and the small combinatorial helpers."""
import numpy as np
import pytest

from zoneldp.domain import (
    MECHANISMS,
    SENTINEL_RSSI,
    Fingerprint,
    FrequencyEstimate,
    PrivacyParams,
    ZoneTable,
    max_zone_count,
)


class TestFingerprint:
    def test_accepts_plain_lists_and_keeps_location(self):
        fp = Fingerprint(rssi=[-40, -60.5, SENTINEL_RSSI], location=(1, 2))
        assert fp.rssi.dtype == np.float64
        assert fp.n_aps == 3
        assert fp.location == (1.0, 2.0)

    def test_location_defaults_to_none(self):
        assert Fingerprint(rssi=[-40.0]).location is None

    def test_rejects_below_sentinel(self):
        with pytest.raises(ValueError):
            Fingerprint(rssi=[-40.0, -120.0])

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            Fingerprint(rssi=[])
        with pytest.raises(ValueError):
            Fingerprint(rssi=[[-40.0, -50.0]])

    def test_rssi_is_readonly(self):
        fp = Fingerprint(rssi=[-40.0, -50.0])
        with pytest.raises(ValueError):
            fp.rssi[0] = 0.0


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
        params = PrivacyParams(epsilon=2.0, mechanism="OLH")
        assert params.the_theta == 1.0
        assert (params.cms_k, params.cms_m) == (128, 1024)
        assert (params.rappor_k, params.rappor_m) == (64, 1024)

    def test_mechanism_membership(self):
        for name in MECHANISMS:
            PrivacyParams(epsilon=1.0, mechanism=name)
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, mechanism="RR")

    def test_rejects_nonpositive_epsilon_and_sizes(self):
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=0.0, mechanism="OUE")
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, mechanism="CMS", cms_k=0)
        with pytest.raises(ValueError):
            PrivacyParams(epsilon=1.0, mechanism="RAPPOR", rappor_m=0)


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
