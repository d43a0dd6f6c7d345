"""Tests for the count-mean sketch.

Covers the per-bit keep/flip pair, the public hash table, report privacy
via an independent enumeration of the report distribution, and the
debiased sketch decoder. Cases it shares with RAPPOR, the same hashed
sketch, come from sketch_cases.
"""
import math

import numpy as np
import pytest

import ldp_enum
import sketch_cases
from zoneldp.oracles.cms import CmsBatch, CountMeanSketch


class Cms(sketch_cases.Sketch):
    batch_type = CmsBatch
    row_field = "hash_index"

    @staticmethod
    def make(l_zones, epsilon, rows, width, hash_seed=0):
        return CountMeanSketch(l_zones, epsilon, k=rows, m=width, hash_seed=hash_seed)


class TestProbabilities(Cms, sketch_cases.Probabilities):
    pass


class TestConstruction(Cms, sketch_cases.Construction):
    def test_sketch_width_must_allow_collision_correction(self):
        with pytest.raises(ValueError):
            CountMeanSketch(l_zones=4, epsilon=1.0, k=4, m=1)

    def test_rejects_empty_hash_family(self):
        with pytest.raises(ValueError):
            CountMeanSketch(l_zones=4, epsilon=1.0, k=0, m=16)

    def test_pinned_table_row(self):
        # freezes the shared hash table so clients and the aggregator stay
        # wire-compatible across refactors
        mech = CountMeanSketch(l_zones=8, epsilon=1.0, k=1, m=1024, hash_seed=0)
        assert mech.targets[0].tolist() == [587, 651, 339, 101, 462, 869, 225, 30]


class TestPerturb(Cms, sketch_cases.Perturb):
    test_hash_indices_roughly_uniform = sketch_cases.Perturb.row_index_roughly_uniform

    def test_scalar_bit_rates_match_the_pair(self):
        mech = CountMeanSketch(l_zones=4, epsilon=2.0, k=4, m=16, hash_seed=1)
        rng = np.random.default_rng(22)
        n = 4000
        target_hits = 0
        total_bits = 0
        for _ in range(n):
            report = mech.perturb_batch([1], rng)
            target_hits += int(report.bits[0, mech.targets[report.hash_index[0], 1]])
            total_bits += int(report.bits.sum())
        probs = mech.probabilities()
        sigma = math.sqrt(probs.p * (1 - probs.p) * n)
        assert abs(target_hits - probs.p * n) < 3 * sigma
        cells = n * (mech.m - 1)
        sigma = math.sqrt(probs.q * (1 - probs.q) * cells)
        assert abs((total_bits - target_hits) - probs.q * cells) < 3 * sigma


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


class TestAggregate(Cms, sketch_cases.Aggregate):
    test_rejects_wrong_sketch_width = sketch_cases.Aggregate.rejects_wrong_width
    test_rejects_hash_index_out_of_range = sketch_cases.Aggregate.rejects_row_index_out_of_range

    def test_noiseless_single_hash_closed_form(self):
        # one hash function, a collision-free table and the encoded bits
        # themselves (at eps = 50 a bit still flips with probability
        # 2^-16): each zone's bit sum is its count c and the estimate is
        # m/(m-1) * ((c - n q)/(p - q) - n/m), with the pair on the 2^-16
        # grid, (1 - 2^-16, 2^-16); hand-computed from the definition
        counts = np.array([20, 15, 0, 10, 5, 25, 10, 15])
        zones = np.repeat(np.arange(8), counts)
        mech = CountMeanSketch(l_zones=8, epsilon=50.0, k=1, m=1024, hash_seed=0)
        assert len(set(mech.targets[0].tolist())) == 8
        bits = np.zeros((zones.size, mech.m), dtype=np.uint8)
        bits[np.arange(zones.size), mech.targets[0, zones]] = 1
        est = mech.aggregate(self.batch(np.zeros(zones.size), bits))
        n, p, q = counts.sum(), 1.0 - 2.0**-16, 2.0**-16
        assert (mech.probabilities().p, mech.probabilities().q) == (p, q)
        expected = (mech.m / (mech.m - 1.0)) * ((counts - n * q) / (p - q) - n / mech.m)
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
