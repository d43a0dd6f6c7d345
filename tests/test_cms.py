"""Tests for the hashed-sketch mechanism.

Covers the per-bit keep/flip pair, the public hash table, report privacy
via an independent enumeration of the report distribution, and the
debiased sketch decoder.
"""
import math

import numpy as np
import pytest

import ldp_enum
from zoneldp.errors import ParamMismatch
from zoneldp.oracles.cms import CmsBatch, CountMeanSketch, probabilities


class TestProbabilities:
    def test_frozen_values_at_eps_two(self):
        # hand-computed from the definition: the per-bit budget is eps/2,
        # so at eps = 2 the pair is (e/(e+1), 1/(e+1))
        probs = probabilities(2.0)
        assert probs.p == pytest.approx(0.7310585786300049, rel=1e-15)
        assert probs.q == pytest.approx(0.2689414213699951, rel=1e-15)

    def test_pair_sums_to_one(self):
        for epsilon in (0.3, 1.0, 2.0, 5.0):
            probs = probabilities(epsilon)
            assert probs.p + probs.q == pytest.approx(1.0, abs=1e-15)

    def test_keep_flip_ratio_spends_half_the_budget(self):
        for epsilon in (0.5, 1.0, 2.0, 4.0):
            probs = probabilities(epsilon)
            assert probs.p / probs.q == pytest.approx(
                math.exp(epsilon / 2.0), rel=1e-12
            )

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            probabilities(0.0)
        with pytest.raises(ValueError):
            probabilities(-1.0)


class TestConstruction:
    def test_sketch_width_must_allow_collision_correction(self):
        with pytest.raises(ValueError):
            CountMeanSketch(l_zones=4, epsilon=1.0, k=4, m=1)

    def test_rejects_empty_hash_family(self):
        with pytest.raises(ValueError):
            CountMeanSketch(l_zones=4, epsilon=1.0, k=0, m=16)

    def test_target_table_shape_and_range(self):
        mech = CountMeanSketch(l_zones=7, epsilon=1.0, k=5, m=32)
        assert mech.targets.shape == (5, 7)
        assert mech.targets.min() >= 0
        assert mech.targets.max() < 32

    def test_family_seed_changes_the_table(self):
        a = CountMeanSketch(l_zones=8, epsilon=1.0, k=8, m=64, hash_seed=0)
        b = CountMeanSketch(l_zones=8, epsilon=1.0, k=8, m=64, hash_seed=1)
        assert not np.array_equal(a.targets, b.targets)

    def test_pinned_table_row(self):
        # freezes the shared hash table so clients and the aggregator stay
        # wire-compatible across refactors
        mech = CountMeanSketch(l_zones=8, epsilon=1.0, k=1, m=1024, hash_seed=0)
        assert mech.targets[0].tolist() == [587, 651, 339, 101, 462, 869, 225, 30]


class TestPerturb:
    def test_report_shape(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=6, m=16)
        report = mech.perturb(2, np.random.default_rng(3))
        assert 0 <= report.hash_index < 6
        assert len(report.bits) == 16
        assert set(report.bits) <= {0, 1}

    def test_rejects_zone_out_of_range(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=6, m=16)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            mech.perturb(4, rng)
        with pytest.raises(ValueError):
            mech.perturb_batch([0, -1], rng)

    def test_deterministic_under_seeded_generator(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=6, m=16)
        assert mech.perturb(1, np.random.default_rng(9)) == mech.perturb(
            1, np.random.default_rng(9)
        )
        zones = np.tile(np.arange(4), 5)
        first = mech.perturb_batch(zones, np.random.default_rng(9))
        second = mech.perturb_batch(zones, np.random.default_rng(9))
        assert np.array_equal(first.hash_index, second.hash_index)
        assert np.array_equal(first.bits, second.bits)

    def test_batch_bit_rates_match_the_pair(self):
        # the bit a user's own hash points at fires with probability p,
        # every other bit with probability q; 3 sigma bands around both
        mech = CountMeanSketch(l_zones=4, epsilon=2.0, k=4, m=16, hash_seed=1)
        n = 20_000
        batch = mech.perturb_batch(np.full(n, 1), np.random.default_rng(21))
        own = mech.targets[batch.hash_index, 1]
        target_hits = int(batch.bits[np.arange(n), own].sum())
        probs = mech.probabilities()
        sigma = math.sqrt(probs.p * (1 - probs.p) * n)
        assert abs(target_hits - probs.p * n) < 3 * sigma
        other_hits = int(batch.bits.sum()) - target_hits
        cells = n * (mech.m - 1)
        sigma = math.sqrt(probs.q * (1 - probs.q) * cells)
        assert abs(other_hits - probs.q * cells) < 3 * sigma

    def test_scalar_bit_rates_match_the_pair(self):
        mech = CountMeanSketch(l_zones=4, epsilon=2.0, k=4, m=16, hash_seed=1)
        rng = np.random.default_rng(22)
        n = 4000
        target_hits = 0
        total_bits = 0
        for _ in range(n):
            report = mech.perturb(1, rng)
            target_hits += report.bits[mech.targets[report.hash_index, 1]]
            total_bits += sum(report.bits)
        probs = mech.probabilities()
        sigma = math.sqrt(probs.p * (1 - probs.p) * n)
        assert abs(target_hits - probs.p * n) < 3 * sigma
        cells = n * (mech.m - 1)
        sigma = math.sqrt(probs.q * (1 - probs.q) * cells)
        assert abs((total_bits - target_hits) - probs.q * cells) < 3 * sigma

    def test_hash_indices_roughly_uniform(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=8, m=16)
        n = 40_000
        batch = mech.perturb_batch(
            np.zeros(n, dtype=np.int64), np.random.default_rng(5)
        )
        counts = np.bincount(batch.hash_index, minlength=8)
        sigma = math.sqrt(n * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - n / 8) < 5 * sigma)


class TestPrivacy:
    """The whole report (hash index plus all m bits) must satisfy the
    likelihood-ratio bound e^eps between any two zones.

    The report distribution is enumerated from the definition, independently
    of the implementation; only the public hash table is shared.
    """

    def test_ratio_bound_holds_and_is_sharp(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=2, m=4, hash_seed=5)
        targets = mech.targets.tolist()
        # this family separates some zone pairs and collides others, which
        # exercises both extremes of the ratio
        assert targets == [[0, 1, 1, 3], [1, 2, 2, 3]]
        for epsilon in (0.5, 1.0, 2.0):
            bound = math.exp(epsilon)
            dists = [ldp_enum.cms_dist(zone, epsilon, targets, 4) for zone in range(4)]
            for dist in dists:
                ldp_enum.check_total(dist)
            worst = 0.0
            for a in range(4):
                for b in range(4):
                    if a == b:
                        continue
                    ratio = ldp_enum.max_ratio(dists[a], dists[b])
                    assert ratio <= bound * (1 + 1e-9)
                    worst = max(worst, ratio)
            assert worst == pytest.approx(bound, rel=1e-9)

    def test_colliding_zones_are_indistinguishable(self):
        # zones 1 and 2 hash to the same bit under every family member
        # here, so their report distributions coincide exactly
        targets = [[0, 1, 1, 3], [1, 2, 2, 3]]
        d1 = ldp_enum.cms_dist(1, 1.0, targets, 4)
        d2 = ldp_enum.cms_dist(2, 1.0, targets, 4)
        assert ldp_enum.max_ratio(d1, d2) == pytest.approx(1.0, rel=1e-12)

    def test_perturb_matches_enumerated_distribution(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=2, m=4, hash_seed=5)
        dist = ldp_enum.cms_dist(0, 1.0, mech.targets.tolist(), 4)
        n = 200_000
        batch = mech.perturb_batch(
            np.zeros(n, dtype=np.int64), np.random.default_rng(17)
        )
        codes = batch.hash_index * 16 + batch.bits @ (1 << np.arange(4))
        observed = np.bincount(codes, minlength=32) / n
        for key, prob in dist.items():
            code = key[0] * 16 + sum(bit << i for i, bit in enumerate(key[1:]))
            sigma = math.sqrt(prob * (1 - prob) / n)
            assert abs(observed[code] - prob) < 4 * sigma + 1e-12


class TestAggregate:
    def test_noiseless_single_hash_closed_form(self):
        # one hash function, a collision-free table and a huge budget make
        # the debiased sketch exact, so the estimate reduces to
        # count + (count - n)/(m - 1); hand-computed from the definition
        counts = np.array([20, 15, 0, 10, 5, 25, 10, 15])
        zones = np.repeat(np.arange(8), counts)
        mech = CountMeanSketch(l_zones=8, epsilon=50.0, k=1, m=1024, hash_seed=0)
        assert len(set(mech.targets[0].tolist())) == 8
        est = mech.aggregate(mech.perturb_batch(zones, np.random.default_rng(11)))
        expected = counts + (counts - counts.sum()) / (mech.m - 1.0)
        np.testing.assert_allclose(est.raw, expected, atol=1e-9)
        assert est.rounded().tolist() == counts.tolist()

    def test_unbiased_over_fresh_hash_families(self):
        # a fixed family carries a small collision bias, so each trial
        # redraws the family; the trial mean must sit within 3 standard
        # errors of the truth in every zone
        truth = np.array([5000, 3000, 6000, 2000, 4000])
        zones = np.repeat(np.arange(5), truth)
        raws = []
        for trial in range(20):
            mech = CountMeanSketch(
                l_zones=5, epsilon=1.0, k=16, m=256, hash_seed=400 + trial
            )
            rng = np.random.default_rng(10_400 + trial)
            raws.append(mech.aggregate(mech.perturb_batch(zones, rng)).raw)
        raws = np.array(raws)
        stderr = raws.std(axis=0, ddof=1) / math.sqrt(len(raws))
        assert np.all(stderr > 0)
        assert np.all(np.abs(raws.mean(axis=0) - truth) < 3 * stderr)

    def test_order_independent(self):
        mech = CountMeanSketch(l_zones=5, epsilon=1.0, k=3, m=8, hash_seed=2)
        rng = np.random.default_rng(31)
        batch = mech.perturb_batch(rng.integers(0, 5, size=500), rng)
        perm = rng.permutation(500)
        shuffled = CmsBatch(
            hash_index=batch.hash_index[perm], bits=batch.bits[perm]
        )
        assert np.array_equal(mech.aggregate(batch).raw, mech.aggregate(shuffled).raw)

    def test_report_sequence_matches_batch(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=3, m=8, hash_seed=2)
        rng = np.random.default_rng(13)
        reports = [mech.perturb(int(zone), rng) for zone in rng.integers(0, 4, size=60)]
        batch = CmsBatch(
            hash_index=np.array([r.hash_index for r in reports], dtype=np.int64),
            bits=np.array([r.bits for r in reports], dtype=np.uint8),
        )
        assert np.array_equal(mech.aggregate(reports).raw, mech.aggregate(batch).raw)

    def test_empty_reports_give_zero_estimate(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=3, m=8)
        est = mech.aggregate([])
        assert est.n_reports == 0
        assert np.array_equal(est.raw, np.zeros(4))

    def test_rejects_wrong_sketch_width(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=3, m=8)
        bad = CmsBatch(
            hash_index=np.zeros(2, dtype=np.int64),
            bits=np.zeros((2, 9), dtype=np.uint8),
        )
        with pytest.raises(ParamMismatch):
            mech.aggregate(bad)

    def test_rejects_hash_index_out_of_range(self):
        mech = CountMeanSketch(l_zones=4, epsilon=1.0, k=3, m=8)
        bad = CmsBatch(
            hash_index=np.array([0, 3], dtype=np.int64),
            bits=np.zeros((2, 8), dtype=np.uint8),
        )
        with pytest.raises(ParamMismatch):
            mech.aggregate(bad)
