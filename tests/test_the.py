"""Noisy-histogram mechanism with server-side thresholding."""
import math

import numpy as np
import pytest

import ldp_enum
from wire import payloads
from zoneldp.oracles.the import (
    TheBatch,
    ThresholdHistogramEncoding,
    laplace_cdf,
    laplace_noise,
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
        # THE's own noise: the cells off each user's zone of 20k users x 64
        # zones at scale 2, over 2^17 cells, so run_blocks splits the job
        mech = ThresholdHistogramEncoding(l_zones=64, epsilon=1.0)
        rng = np.random.default_rng(149)
        zones = rng.integers(0, 64, size=20_000)
        values = mech.perturb_batch(zones, rng).values
        off = np.ones(values.shape, dtype=bool)
        off[np.arange(zones.size), zones] = False
        samples = values[off]
        for x in (-30.0, -10.0, -1.0, 0.5, 2.0, 10.0, 30.0):
            frac = float(np.mean(samples <= x))
            cdf = laplace_cdf(x, 2.0)
            sigma = math.sqrt(cdf * (1 - cdf) / samples.size)
            assert abs(frac - cdf) <= 4.0 * sigma, x

    def test_extreme_uniforms_give_finite_bounded_noise(self):
        # the ends and middle of Generator.random's grid, which no seeded
        # draw can be expected to hit; u = 1/2 - 2^-53 and 1/2 give |v| = 2^-53
        step = 2.0**-53
        uniforms = np.array([0.0, step, 0.5 - step, 0.5, 1.0 - step])
        for scale in (0.25, 2.0, 40.0):
            noise = uniforms.copy()
            laplace_noise(noise, scale)
            largest = 53 * math.log(2.0) * scale
            assert np.all(np.isfinite(noise)), scale
            assert np.sign(noise).tolist() == [-1, -1, -1, 1, 1], scale
            assert np.all(np.abs(noise) <= largest), scale
            assert -noise[2] == noise[3] == pytest.approx(largest, rel=1e-14)


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

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            probabilities(0.0)


class TestPerturb:
    def test_noise_centering(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0)
        rng = np.random.default_rng(151)
        n = 50_000
        batch = mech.perturb_batch(np.full(n, 2), rng)
        means = batch.values.mean(axis=0)
        # Laplace(0, 1) has variance 2; the true component is shifted by 1
        se = math.sqrt(2.0 * mech.scale**2 / n)
        expected = np.array([0.0, 0.0, 1.0, 0.0])
        assert np.all(np.abs(means - expected) <= 4.0 * se)

    def test_threshold_clear_rates_match_the_pair(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0, theta=1.0)
        rng = np.random.default_rng(157)
        n = 50_000
        batch = mech.perturb_batch(np.full(n, 1), rng)
        clear = (batch.values >= mech.theta).mean(axis=0)
        probs = mech.probabilities()
        sigma_p = math.sqrt(probs.p * (1 - probs.p) / n)
        sigma_q = math.sqrt(probs.q * (1 - probs.q) / n)
        assert abs(clear[1] - probs.p) <= 3.0 * sigma_p
        assert np.all(np.abs(np.delete(clear, 1) - probs.q) <= 3.0 * sigma_q)

    def test_scalar_report_length(self):
        mech = ThresholdHistogramEncoding(l_zones=3, epsilon=1.0)
        report = mech.perturb_batch([0], np.random.default_rng(163))
        assert report.values.shape == (1, 3)


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
        exact = [[0.0, 1.0, 0.0, 0.0]] * 7 + [[1.0, 0.0, 0.0, 0.0]] * 3
        est = mech.aggregate(TheBatch(values=np.array(exact)))
        # thresholding at 1.0 recovers the exact indicator counts
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
        rng_a = np.random.default_rng(179)
        rng_b = np.random.default_rng(179)
        low = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0, theta=0.5)
        high = ThresholdHistogramEncoding(l_zones=4, epsilon=2.0, theta=1.5)
        zones = np.zeros(5000, dtype=np.int64)
        batch_low = low.perturb_batch(zones, rng_a)
        batch_high = high.perturb_batch(zones, rng_b)
        # identical noise draws, different thresholds, both debias correctly
        assert np.array_equal(batch_low.values, batch_high.values)
        est_low = low.aggregate(batch_low)
        est_high = high.aggregate(batch_high)
        assert abs(est_low.raw[0] - 5000) < 500
        assert abs(est_high.raw[0] - 5000) < 500

    def test_order_independent(self):
        mech = ThresholdHistogramEncoding(l_zones=5, epsilon=1.0)
        rng = np.random.default_rng(181)
        batch = mech.perturb_batch(rng.integers(0, 5, size=4000), rng)
        perm = rng.permutation(4000)
        shuffled = TheBatch(values=batch.values[perm])
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
            mech.aggregate(TheBatch(values=np.zeros((2, 5))))

    def test_empty_input_gives_zero_estimate(self):
        mech = ThresholdHistogramEncoding(l_zones=4, epsilon=1.0)
        est = mech.aggregate([])
        assert est.raw.tolist() == [0.0] * 4
