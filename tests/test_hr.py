"""Sign-flip mechanism over an orthogonal +/-1 transform."""
import math
import tracemalloc

import numpy as np
import pytest

import ldp_enum
from wire import payloads
from zoneldp.errors import ParamMismatch
from zoneldp.oracles.hr import (
    HadamardResponse,
    HrBatch,
    padded_dimension,
    probabilities,
    scale_factor,
)


class TestPaddedDimension:
    def test_known_values(self):
        assert padded_dimension(1) == 2
        assert padded_dimension(3) == 4
        assert padded_dimension(4) == 8
        assert padded_dimension(7) == 8
        assert padded_dimension(8) == 16
        assert padded_dimension(15) == 16
        assert padded_dimension(16) == 32

    def test_always_a_power_of_two_with_room_for_the_unused_column(self):
        for l_zones in range(1, 70):
            dim = padded_dimension(l_zones)
            assert dim & (dim - 1) == 0
            assert dim >= l_zones + 1
            assert dim < 2 * (l_zones + 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            padded_dimension(0)


class TestProbabilities:
    def test_sign_flip_pair(self):
        probs = probabilities(math.log(3.0))
        assert probs.p == pytest.approx(0.75, rel=1e-12)
        assert probs.q == pytest.approx(0.25, rel=1e-12)
        probs2 = probabilities(2.0)
        assert probs2.p == pytest.approx(0.8807970779778824, rel=1e-14)

    def test_scale_is_the_inverse_of_the_mean_kept_sign(self):
        # E[flip] = p - q = (e-1)/(e+1); scale is its reciprocal
        for epsilon in (0.5, 1.0, 2.0, 5.0):
            probs = probabilities(epsilon)
            assert scale_factor(epsilon) * (probs.p - probs.q) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_scale_value_at_eps_two(self):
        assert scale_factor(2.0) == pytest.approx(1.3130352854993312, rel=1e-14)


def _parity(rows, columns):
    """<row, column> mod 2, the sign of the +/-1 entry as a bit."""
    return np.bitwise_count(np.asarray(rows) & np.asarray(columns)) & 1


class TestPerturb:
    def test_report_is_a_row_and_a_bit(self):
        mech = HadamardResponse(l_zones=5, epsilon=1.5)
        rng = np.random.default_rng(193)
        for zone in range(5):
            report = mech.perturb_batch([zone], rng)
            assert 0 <= report.row_index[0] < mech.dim
            assert report.bit.dtype == np.uint8 and report.bit[0] in (0, 1)

    def test_rows_are_uniform(self):
        mech = HadamardResponse(l_zones=3, epsilon=1.0)
        rng = np.random.default_rng(197)
        batch = mech.perturb_batch(np.zeros(40_000, dtype=np.int64), rng)
        counts = np.bincount(batch.row_index, minlength=mech.dim)
        sigma = math.sqrt(40_000 * (1 / mech.dim) * (1 - 1 / mech.dim))
        assert np.all(np.abs(counts - 40_000 / mech.dim) <= 5.0 * sigma)

    def test_bit_is_the_parity_xor_the_flip(self):
        # replayed draws: the row, then one uniform per user that keeps the
        # sign below p and flips it otherwise
        mech = HadamardResponse(l_zones=6, epsilon=2.0)
        zones = np.random.default_rng(211).integers(0, 6, size=1000)
        batch = mech.perturb_batch(zones, np.random.default_rng(5))
        replay = np.random.default_rng(5)
        rows = replay.integers(0, mech.dim, size=1000)
        flips = replay.random(1000) >= mech.probabilities().p
        assert np.array_equal(batch.row_index, rows)
        assert np.array_equal(batch.bit, _parity(rows, zones + 1) ^ flips)

    def test_flip_rate_is_q(self):
        mech = HadamardResponse(l_zones=4, epsilon=1.0)
        n = 30_000
        batch = mech.perturb_batch(np.full(n, 2), np.random.default_rng(199))
        flipped = np.count_nonzero(batch.bit != _parity(batch.row_index, 3))
        q = 1.0 / (math.exp(1.0) + 1.0)
        assert abs(flipped / n - q) <= 3.0 * math.sqrt(q * (1 - q) / n)


class TestPrivacyRatio:
    def test_enumerated_row_sign_space_respects_the_budget(self):
        for epsilon in (0.5, 1.0, 2.0):
            bound = math.exp(epsilon) + 1e-9
            sharp = 0.0
            dists = [ldp_enum.hr_dist(zone, 4, epsilon) for zone in range(4)]
            for dist in dists:
                ldp_enum.check_total(dist)
            for a in range(4):
                for b in range(4):
                    if a == b:
                        continue
                    ratio = ldp_enum.max_ratio(dists[a], dists[b])
                    assert ratio <= bound
                    sharp = max(sharp, ratio)
            assert sharp == pytest.approx(math.exp(epsilon), rel=1e-9)

    def test_implementation_matches_the_enumerated_distribution(self):
        epsilon = 1.0
        mech = HadamardResponse(l_zones=4, epsilon=epsilon)
        rng = np.random.default_rng(223)
        n = 60_000
        batch = mech.perturb_batch(np.full(n, 1), rng)
        observed = {}
        for outcome in zip(batch.row_index.tolist(), batch.bit.tolist()):
            observed[outcome] = observed.get(outcome, 0) + 1
        expected = ldp_enum.hr_dist(1, 4, epsilon)
        for outcome, prob in expected.items():
            got = observed.get(outcome, 0) / n
            sigma = math.sqrt(prob * (1 - prob) / n)
            assert abs(got - prob) <= 4.0 * sigma


class TestAggregate:
    def test_unbiased_over_trials(self):
        mech = HadamardResponse(l_zones=8, epsilon=2.0)
        rng = np.random.default_rng(227)
        truth = np.array([0, 12000, 0, 0, 8000, 0, 0, 0], dtype=np.int64)
        zones = np.repeat(np.arange(8), truth)
        raws = []
        for _ in range(10):
            raws.append(mech.aggregate(mech.perturb_batch(zones, rng)).raw)
        raws = np.stack(raws)
        se = raws.std(axis=0, ddof=1) / math.sqrt(10)
        assert np.all(np.abs(raws.mean(axis=0) - truth) <= 3.0 * se)

    def test_order_independent_with_float_sums(self):
        mech = HadamardResponse(l_zones=6, epsilon=1.0)
        rng = np.random.default_rng(229)
        batch = mech.perturb_batch(rng.integers(0, 6, size=5000), rng)
        perm = rng.permutation(5000)
        shuffled = HrBatch(
            row_index=batch.row_index[perm],
            bit=batch.bit[perm],
        )
        assert np.array_equal(mech.aggregate(batch).raw, mech.aggregate(shuffled).raw)

    def test_report_sequence_equals_batch(self):
        mech = HadamardResponse(l_zones=4, epsilon=1.0)
        rng = np.random.default_rng(233)
        batch = mech.perturb_batch(rng.integers(0, 4, size=300), rng)
        assert np.array_equal(
            mech.aggregate(payloads(batch)).raw, mech.aggregate(batch).raw
        )

    def test_row_out_of_range_rejected(self):
        mech = HadamardResponse(l_zones=4, epsilon=1.0)
        bad = HrBatch(
            row_index=np.array([mech.dim], dtype=np.int64),
            bit=np.array([1], dtype=np.uint8),
        )
        with pytest.raises(ValueError):
            mech.aggregate(bad)

    def test_empty_input_gives_zero_estimate(self):
        mech = HadamardResponse(l_zones=4, epsilon=1.0)
        est = mech.aggregate([])
        assert est.raw.tolist() == [0.0] * 4
        assert est.n_reports == 0

    def test_raw_is_the_scale_times_integer_sign_sums(self):
        # reference in plain Python ints: for each zone, the reported sign
        # times the +/-1 entry at the report's row and the zone's column
        mech = HadamardResponse(l_zones=8, epsilon=1.0)
        rng = np.random.default_rng(5)
        batch = mech.perturb_batch(rng.integers(0, 8, size=3000), rng)
        sums = [0] * 8
        for row, bit in zip(batch.row_index.tolist(), batch.bit.tolist()):
            sign = 1 - 2 * bit
            for zone in range(8):
                sums[zone] += sign * (1 - 2 * ((row & (zone + 1)).bit_count() & 1))
        want = np.array([scale_factor(1.0) * total for total in sums])
        assert np.array_equal(mech.aggregate(batch).raw, want)

    @pytest.mark.parametrize("l_zones", [1, 8, 373, 1733])
    def test_transform_equals_the_table_product(self, l_zones):
        # the d' x L table of the client's +/-1 entries is the reference
        mech = HadamardResponse(l_zones=l_zones, epsilon=1.0)
        rng = np.random.default_rng(l_zones)
        batch = mech.perturb_batch(rng.integers(0, l_zones, size=20_000), rng)
        signs = 1 - 2 * batch.bit.astype(np.int64)
        sums = np.bincount(batch.row_index, weights=signs, minlength=mech.dim)
        rows = np.arange(mech.dim)[:, None]
        table = 1 - 2 * _parity(rows, np.arange(1, l_zones + 1)).astype(np.int64)
        want = scale_factor(1.0) * (sums @ table)
        assert mech.aggregate(batch).raw.tobytes() == want.tobytes()

    def test_decoding_builds_no_table(self):
        # at L = 7140 (C(36, 3) zones) the d' x L table alone is 468 MB
        mech = HadamardResponse(l_zones=7140, epsilon=1.0)
        rng = np.random.default_rng(7140)
        batch = mech.perturb_batch(rng.integers(0, 7140, size=20_000), rng)
        tracemalloc.start()
        try:
            mech.aggregate(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_payload_bit_outside_0_1_rejected(self):
        mech = HadamardResponse(l_zones=4, epsilon=1.0)
        for bit in (2, 255, -1):
            reports = [{"row_index": 1, "bit": 0}, {"row_index": 2, "bit": bit}]
            with pytest.raises(ParamMismatch, match="bit"):
                mech.aggregate(reports)

    def test_built_bit_outside_0_1_rejected(self):
        # a batch built in code, unchecked by HrBatch.of: a bit of 2 would
        # count as a +1 sign in the next row
        mech = HadamardResponse(l_zones=4, epsilon=1.0)
        batch = HrBatch(row_index=np.array([0]), bit=np.array([2], dtype=np.uint8))
        with pytest.raises(ParamMismatch, match=r"bit out of range \[0, 2\)"):
            mech.reduce(batch)
