"""Unary-encoding mechanism: bit probabilities, privacy ratio, estimates."""
import math

import numpy as np
import pytest

import ldp_enum
from wire import payloads
from zoneldp.oracles.oue import OptimizedUnaryEncoding, OueBatch, probabilities


class TestProbabilities:
    def test_true_bit_probability_is_half(self):
        for epsilon in (0.25, 1.0, 2.0, 6.0):
            assert probabilities(epsilon).p == 0.5

    def test_false_bit_probability(self):
        assert probabilities(math.log(3.0)).q == pytest.approx(0.25, rel=1e-12)
        assert probabilities(2.0).q == pytest.approx(
            0.11920292202211755, rel=1e-14
        )

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            probabilities(0.0)


class TestPerturb:
    def test_bit_rates_match_the_pair(self):
        mech = OptimizedUnaryEncoding(l_zones=6, epsilon=1.0)
        rng = np.random.default_rng(107)
        n = 40_000
        batch = mech.perturb_batch(np.full(n, 3), rng)
        rates = batch.bits.mean(axis=0)
        probs = mech.probabilities()
        sigma_p = math.sqrt(probs.p * (1 - probs.p) / n)
        sigma_q = math.sqrt(probs.q * (1 - probs.q) / n)
        assert abs(rates[3] - probs.p) <= 3.0 * sigma_p
        off = np.delete(rates, 3)
        assert np.all(np.abs(off - probs.q) <= 3.0 * sigma_q)

    def test_scalar_report_shape(self):
        mech = OptimizedUnaryEncoding(l_zones=4, epsilon=1.0)
        report = mech.perturb_batch([1], np.random.default_rng(109))
        assert report.bits.shape == (1, 4)
        assert set(report.bits[0].tolist()) <= {0, 1}

    def test_bits_are_independent_across_positions(self):
        # empirical pairwise correlation of off-bits stays at noise level
        mech = OptimizedUnaryEncoding(l_zones=3, epsilon=1.0)
        rng = np.random.default_rng(113)
        batch = mech.perturb_batch(np.zeros(50_000, dtype=np.int64), rng)
        a = batch.bits[:, 1].astype(np.float64)
        b = batch.bits[:, 2].astype(np.float64)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(50_000)


class TestPrivacyRatio:
    def test_enumerated_report_space_respects_the_budget(self):
        for epsilon in (0.5, 1.0, 2.0):
            bound = math.exp(epsilon) + 1e-9
            sharp = 0.0
            dists = [ldp_enum.oue_dist(zone, 4, epsilon) for zone in range(4)]
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
        # coarse goodness check: empirical mass of each of the 16 outcomes
        # within 4 sigma of the enumerated probability
        epsilon = 1.0
        mech = OptimizedUnaryEncoding(l_zones=4, epsilon=epsilon)
        rng = np.random.default_rng(127)
        n = 60_000
        batch = mech.perturb_batch(np.full(n, 1), rng)
        weights = 1 << np.arange(4)
        codes = batch.bits @ weights
        observed = np.bincount(codes, minlength=16) / n
        expected = np.zeros(16)
        for bits, prob in ldp_enum.oue_dist(1, 4, epsilon).items():
            expected[int(np.dot(bits, weights))] = prob
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(observed - expected) <= 4.0 * sigma + 1e-12)


class TestAggregate:
    def test_unbiased_over_trials(self):
        mech = OptimizedUnaryEncoding(l_zones=8, epsilon=2.0)
        rng = np.random.default_rng(131)
        truth = np.array([0, 0, 5000, 0, 15000, 0, 0, 0], dtype=np.int64)
        zones = np.repeat(np.arange(8), truth)
        raws = []
        for _ in range(10):
            raws.append(mech.aggregate(mech.perturb_batch(zones, rng)).raw)
        raws = np.stack(raws)
        se = raws.std(axis=0, ddof=1) / math.sqrt(10)
        assert np.all(np.abs(raws.mean(axis=0) - truth) <= 3.0 * se)

    def test_order_independent(self):
        mech = OptimizedUnaryEncoding(l_zones=5, epsilon=1.0)
        rng = np.random.default_rng(137)
        batch = mech.perturb_batch(rng.integers(0, 5, size=4000), rng)
        perm = rng.permutation(4000)
        shuffled = OueBatch(bits=batch.bits[perm])
        assert np.array_equal(mech.aggregate(batch).raw, mech.aggregate(shuffled).raw)

    def test_report_sequence_equals_batch(self):
        mech = OptimizedUnaryEncoding(l_zones=4, epsilon=1.0)
        rng = np.random.default_rng(139)
        batch = mech.perturb_batch(rng.integers(0, 4, size=250), rng)
        assert np.array_equal(
            mech.aggregate(payloads(batch)).raw, mech.aggregate(batch).raw
        )

    def test_wrong_width_rejected(self):
        mech = OptimizedUnaryEncoding(l_zones=4, epsilon=1.0)
        bad = OueBatch(bits=np.zeros((3, 5), dtype=np.uint8))
        with pytest.raises(ValueError):
            mech.aggregate(bad)

    def test_empty_input_gives_zero_estimate(self):
        mech = OptimizedUnaryEncoding(l_zones=4, epsilon=1.0)
        est = mech.aggregate([])
        assert est.raw.tolist() == [0.0] * 4
        assert est.n_reports == 0
