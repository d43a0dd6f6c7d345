"""Noisy-histogram mechanism whose client reports the thresholded bits."""
import io
import json
import math

import numpy as np
import pytest

import ldp_enum
from wire import payloads, trace_text
from zoneldp.errors import ParamMismatch
from zoneldp.oracles import read_reports
from zoneldp.oracles.base import OueBatch
from zoneldp.oracles.the import (
    ThresholdHistogramEncoding,
    laplace_cdf,
    probabilities,
)


class TestLaplaceCdf:
    def test_symmetry_and_midpoint(self):
        assert laplace_cdf(0.0, 2.0) == 0.5
        for x in (0.3, 1.7, 4.0):
            assert laplace_cdf(-x, 2.0) == pytest.approx(
                1.0 - laplace_cdf(x, 2.0), rel=1e-12
            )

    def test_monotone(self):
        xs = np.linspace(-8.0, 8.0, 101)
        values = [laplace_cdf(float(x), 1.5) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_sampled_noise(self):
        # THE's bits are thresholded noise: the cells off each user's zone
        # clear theta at 1 - F(theta), the cells on it at 1 - F(theta - 1),
        # for 20k users x 64 zones at scale 2, within the 2^-16 rounding
        zones = np.random.default_rng(149).integers(0, 64, size=20_000)
        on = np.zeros((zones.size, 64), dtype=bool)
        on[np.arange(zones.size), zones] = True
        for theta in (-3.0, 0.5, 2.0, 6.0):
            mech = ThresholdHistogramEncoding(l_zones=64, epsilon=1.0, theta=theta)
            bits = mech.perturb_batch(zones, np.random.default_rng(151)).bits
            for cells, x in ((bits[~on], theta), (bits[on], theta - 1.0)):
                rate = 1.0 - laplace_cdf(x, 2.0)
                sigma = math.sqrt(rate * (1 - rate) / cells.size)
                assert abs(cells.mean() - rate) <= 4.0 * sigma + 2.0**-16, (theta, x)


class TestProbabilities:
    def test_unit_threshold_pair_at_eps_two(self):
        # p = 1 - F(0) = 1/2; q = 1 - F(1) = e^{-1}/2, hand-computed
        probs = probabilities(2.0, theta=1.0)
        assert probs.p == pytest.approx(0.5, rel=1e-14)
        assert probs.q == pytest.approx(0.18393972058572117, rel=1e-14)

    def test_pair_orders_for_any_threshold(self):
        for theta in (-1.0, 0.0, 0.5, 1.0, 2.5):
            probs = probabilities(1.0, theta)
            assert probs.p > probs.q

    def test_threshold_shifts_both_rates(self):
        low = probabilities(2.0, theta=0.5)
        high = probabilities(2.0, theta=1.5)
        assert low.p > high.p
        assert low.q > high.q

    def test_a_far_tail_keeps_its_digits(self):
        # at eps = 60 and theta = 1.2, q = e^(-36) / 2 ~ 1.2e-16, which
        # 1 - F(theta) loses to cancellation: a q of 0 on the grid would let
        # a set bit name the zone
        probs = probabilities(60.0, theta=1.2)
        assert probs.q == pytest.approx(0.5 * math.exp(-36.0), rel=1e-12)
        held = ThresholdHistogramEncoding(4, 60.0, theta=1.2).probabilities()
        assert held.q == 1.0 / ldp_enum.LANE
        t_p, t_q = ldp_enum.the_lane_thresholds(60.0, 1.2)
        assert (held.p, held.q) == (t_p / ldp_enum.LANE, t_q / ldp_enum.LANE)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            probabilities(0.0)


class TestPerturb:
    def test_noise_centering(self):
        # the bits' column means, debiased by the pair, centre on the
        # one-hot vector of the users' zone
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0)
        rng = np.random.default_rng(151)
        n = 50_000
        means = mech.perturb_batch(np.full(n, 2), rng).bits.mean(axis=0)
        probs = mech.probabilities()
        centred = (means - probs.q) / (probs.p - probs.q)
        se = math.sqrt(0.25 / n) / (probs.p - probs.q)
        expected = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.all(np.abs(centred - expected) <= 4.0 * se)

    def test_threshold_clear_rates_match_the_pair(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0, theta=1.0)
        rng = np.random.default_rng(157)
        n = 50_000
        clear = mech.perturb_batch(np.full(n, 1), rng).bits.mean(axis=0)
        probs = mech.probabilities()
        sigma_p = math.sqrt(probs.p * (1 - probs.p) / n)
        sigma_q = math.sqrt(probs.q * (1 - probs.q) / n)
        assert abs(clear[1] - probs.p) <= 3.0 * sigma_p
        assert np.all(np.abs(np.delete(clear, 1) - probs.q) <= 3.0 * sigma_q)

    def test_scalar_report_length(self):
        mech = ThresholdHistogramEncoding(l_zones=3, epsilon=1.0)
        report = mech.perturb_batch([0], np.random.default_rng(163))
        assert report.bits.shape == (1, 3)

    def test_reports_are_uint8_bits(self):
        mech = ThresholdHistogramEncoding(l_zones=5, epsilon=1.0)
        batch = mech.perturb_batch(np.arange(400) % 5, np.random.default_rng(165))
        assert type(batch) is OueBatch
        assert batch.bits.dtype == np.uint8 and batch.bits.shape == (400, 5)
        assert set(np.unique(batch.bits).tolist()) == {0, 1}

    def test_the_pair_is_the_lane_rounded_closed_form(self):
        for epsilon, theta in ((0.5, 1.0), (1.0, -2.0), (2.0, 1.5), (20.0, 1.0)):
            held = ThresholdHistogramEncoding(4, epsilon, theta).probabilities()
            t_p, t_q = ldp_enum.the_lane_thresholds(epsilon, theta)
            assert (held.p, held.q) == (t_p / ldp_enum.LANE, t_q / ldp_enum.LANE)


class TestPrivacyRatio:
    def test_per_component_density_ratio_is_bounded(self):
        # moving the zone changes two components; each contributes at most
        # e^{eps/2}, so the report is eps-private
        for epsilon in (0.5, 1.0, 2.0):
            bound = math.exp(epsilon / 2.0)
            worst = ldp_enum.the_component_ratio_bound(epsilon)
            assert worst <= bound + 1e-9
            assert worst == pytest.approx(bound, rel=1e-9)

    def test_joint_density_ratio_on_sample_points(self):
        epsilon = 1.0
        scale = 2.0 / epsilon
        bound = math.exp(epsilon) + 1e-9

        def joint(values, zone):
            dens = 1.0
            for j, v in enumerate(values):
                shift = 1.0 if j == zone else 0.0
                dens *= ldp_enum.laplace_density(v - shift, scale)
            return dens

        rng = np.random.default_rng(167)
        for _ in range(200):
            values = rng.uniform(-4.0, 4.0, size=4)
            for a in range(4):
                for b in range(4):
                    ratio = joint(values, a) / joint(values, b)
                    assert ratio <= bound


class TestAggregate:
    def test_pure_one_hot_reports_decode_without_thresholding_noise(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0, theta=1.0)
        exact = [[0, 1, 0, 0]] * 7 + [[1, 0, 0, 0]] * 3
        est = mech.aggregate(OueBatch(bits=np.array(exact, dtype=np.uint8)))
        # bits that are the exact indicators debias to the closed form
        counts = np.array([3, 7, 0, 0])
        probs = mech.probabilities()
        expected = (counts - 10 * probs.q) / (probs.p - probs.q)
        assert np.allclose(est.raw, expected, rtol=1e-12)

    def test_unbiased_over_trials(self):
        mech = ThresholdHistogramEncoding(l_zones=8, epsilon=2.0)
        rng = np.random.default_rng(173)
        truth = np.array([100, 0, 0, 9900, 0, 0, 10000, 0], dtype=np.int64)
        zones = np.repeat(np.arange(8), truth)
        raws = []
        for _ in range(10):
            raws.append(mech.aggregate(mech.perturb_batch(zones, rng)).raw)
        raws = np.stack(raws)
        se = raws.std(axis=0, ddof=1) / math.sqrt(10)
        assert np.all(np.abs(raws.mean(axis=0) - truth) <= 3.0 * se)

    def test_aggregate_uses_the_configured_threshold(self):
        low = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0, theta=0.5)
        high = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0, theta=1.5)
        assert low.probabilities() != high.probabilities()
        zones = np.zeros(5000, dtype=np.int64)
        batch_low = low.perturb_batch(zones, np.random.default_rng(179))
        batch_high = high.perturb_batch(zones, np.random.default_rng(179))
        # the same lanes under each threshold's pair, each debiased by its own
        assert batch_low.bits.sum() > batch_high.bits.sum()
        est_low = low.aggregate(batch_low)
        est_high = high.aggregate(batch_high)
        assert abs(est_low.raw[0] - 5000) < 500
        assert abs(est_high.raw[0] - 5000) < 500

    def test_order_independent(self):
        mech = ThresholdHistogramEncoding(l_zones=5, epsilon=1.0)
        rng = np.random.default_rng(181)
        batch = mech.perturb_batch(rng.integers(0, 5, size=4000), rng)
        perm = rng.permutation(4000)
        shuffled = OueBatch(bits=batch.bits[perm])
        assert np.array_equal(mech.aggregate(batch).raw, mech.aggregate(shuffled).raw)

    def test_report_sequence_equals_batch(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=1.0)
        rng = np.random.default_rng(191)
        batch = mech.perturb_batch(rng.integers(0, 4, size=200), rng)
        assert np.array_equal(
            mech.aggregate(payloads(batch)).raw, mech.aggregate(batch).raw
        )

    def test_wrong_width_rejected(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=1.0)
        with pytest.raises(ValueError):
            mech.aggregate(OueBatch(bits=np.zeros((2, 5), dtype=np.uint8)))

    def test_empty_input_gives_zero_estimate(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=1.0)
        est = mech.aggregate([])
        assert est.raw.tolist() == [0.0] * 4

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"values": [0.25, -1.5, 1.75, 0.1]}, r"missing \['bits'\], unknown \['values'\]"),
            ({"bits": [0, 1.0, 0, 0]}, "'bits' holds float"),
            ({"bits": [0, 0.5, 0, 0]}, "'bits' holds float"),
        ],
    )
    def test_noisy_values_and_float_cells_are_rejected(self, payload, named):
        # a THE report is bits: the noisy reals of the paper's report, or
        # any float cell, do not enter the aggregator
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=1.0)
        reports = payloads(mech.perturb_batch([0, 1, 2], np.random.default_rng(193)))
        reports[1] = payload
        with pytest.raises(ParamMismatch, match=named):
            mech.aggregate(reports)
        lines = [json.dumps({"mech": "THE", "payload": p}) + "\n" for p in reports]
        with pytest.raises(ParamMismatch, match=named):
            read_reports(io.StringIO("".join(lines)))

    def test_a_trace_is_tagged_the(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=1.0)
        batch = mech.perturb_batch([0, 3], np.random.default_rng(197))
        text = trace_text(batch, "THE")
        assert [json.loads(line)["mech"] for line in text.splitlines()] == ["THE"] * 2
        assert np.array_equal(read_reports(io.StringIO(text)).bits, batch.bits)
        with pytest.raises(ParamMismatch, match="OUE report in a trace of THE reports"):
            read_reports(io.StringIO(text + trace_text(batch, "OUE")))
