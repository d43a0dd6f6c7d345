"""Local-hashing mechanism: domain size, privacy ratio, unbiasedness."""
import math
import tracemalloc

import numpy as np
import pytest

import ldp_enum
from wire import payloads
from zoneldp.oracles.base import _SMALL_BLOCK_CELLS, estimate_frequency
from zoneldp.oracles.hashing import hash_bucket, hash_bucket_array
from zoneldp.oracles.olh import (
    OlhBatch,
    OptimizedLocalHashing,
    domain_size,
    probabilities,
)


class TestDomainSize:
    def test_known_values(self):
        # hand-computed ceil(e^eps + 1)
        assert domain_size(0.5) == 3
        assert domain_size(1.0) == 4
        assert domain_size(2.0) == 9
        assert domain_size(5.0) == 150

    def test_exact_integer_boundary_is_not_bumped_by_float_noise(self):
        # e^{ln 3} + 1 = 4 exactly; the ceiling must not round it to 5
        assert domain_size(math.log(3.0)) == 4

    def test_monotone_in_epsilon(self):
        values = [domain_size(e) for e in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert values == sorted(values)
        assert values[0] >= 2

    def test_large_epsilon_hits_the_cap(self):
        assert domain_size(50.0) == 1 << 31
        assert domain_size(22.0) == 1 << 31

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            domain_size(0.0)


class TestProbabilities:
    def test_pair_at_g_four(self):
        probs = probabilities(math.log(3.0))
        assert probs.p == pytest.approx(0.5, rel=1e-12)
        assert probs.q == pytest.approx(0.25, rel=1e-12)

    def test_pair_at_eps_two(self):
        probs = probabilities(2.0)  # g = 9
        assert probs.p == pytest.approx(0.48015005283164175, rel=1e-14)
        assert probs.q == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_keep_to_other_ratio_is_exactly_the_budget(self):
        # p_keep / ((1 - p_keep)/(g - 1)) must equal e^eps for any g
        for epsilon in (0.5, 1.0, 2.0, 5.0):
            g = domain_size(epsilon)
            probs = probabilities(epsilon)
            keep = math.exp(epsilon) / (math.exp(epsilon) + g - 1.0)
            assert keep / ((1.0 - keep) / (g - 1.0)) == pytest.approx(
                math.exp(epsilon), rel=1e-12
            )
            assert probs.q == 1.0 / g


class TestPerturb:
    def test_report_fields_in_range(self):
        mech = OptimizedLocalHashing(l_zones=5, epsilon=1.0)
        rng = np.random.default_rng(71)
        for zone in range(5):
            report = mech.perturb_batch([zone], rng)
            assert 0 <= report.value[0] < mech.g
            assert 0 <= report.hash_seed[0] < 1 << 63

    def test_zone_range_check(self):
        mech = OptimizedLocalHashing(l_zones=3, epsilon=1.0)
        rng = np.random.default_rng(71)
        with pytest.raises(ValueError):
            mech.perturb_batch([3], rng)
        with pytest.raises(ValueError):
            mech.perturb_batch(np.array([0, 3]), rng)

    def test_empirical_keep_rate(self):
        # the reported bucket equals the hashed true bucket with the keep
        # probability; averaged over seeds a wrong zone's bucket matches
        # with probability 1/g
        mech = OptimizedLocalHashing(l_zones=4, epsilon=1.0)
        rng = np.random.default_rng(73)
        n = 40_000
        keep = math.exp(1.0) / (math.exp(1.0) + mech.g - 1.0)
        hits_true = 0
        hits_other = 0
        for _ in range(n):
            report = mech.perturb_batch([2], rng)
            seed, value = int(report.hash_seed[0]), int(report.value[0])
            if value == hash_bucket(seed, 2, mech.g):
                hits_true += 1
            if value == hash_bucket(seed, 0, mech.g):
                hits_other += 1
        sigma_true = math.sqrt(keep * (1.0 - keep) / n)
        sigma_other = math.sqrt((1.0 / mech.g) * (1.0 - 1.0 / mech.g) / n)
        assert abs(hits_true / n - keep) <= 3.0 * sigma_true
        assert abs(hits_other / n - 1.0 / mech.g) <= 3.0 * sigma_other

    def test_scalar_and_batch_paths_share_one_distribution(self):
        # same support-rate statistics from both sampling paths
        mech = OptimizedLocalHashing(l_zones=4, epsilon=1.0)
        rng = np.random.default_rng(79)
        batch = mech.perturb_batch(np.full(40_000, 2), rng)
        hits = np.mean(
            batch.value
            == np.array(
                [hash_bucket(s, 2, mech.g) for s in batch.hash_seed.tolist()]
            )
        )
        keep = math.exp(1.0) / (math.exp(1.0) + mech.g - 1.0)
        sigma = math.sqrt(keep * (1.0 - keep) / 40_000)
        assert abs(hits - keep) <= 3.0 * sigma


class TestPrivacyRatio:
    def test_conditional_report_distribution_respects_the_budget(self):
        # the hash seed is zone-independent, so the bound must hold for the
        # bucket distribution conditioned on every seed
        for epsilon in (0.5, 1.0, 2.0):
            g = domain_size(epsilon)
            bound = math.exp(epsilon) + 1e-9
            sharp = 0.0
            rng = np.random.default_rng(83)
            seeds = rng.integers(0, 1 << 63, size=50).tolist()
            for seed in seeds:
                buckets = [hash_bucket(seed, zone, g) for zone in range(4)]
                for a in range(4):
                    dist_a = ldp_enum.olh_conditional_dist(buckets[a], g, epsilon)
                    ldp_enum.check_total(dist_a)
                    for b in range(4):
                        if a == b:
                            continue
                        dist_b = ldp_enum.olh_conditional_dist(
                            buckets[b], g, epsilon
                        )
                        ratio = ldp_enum.max_ratio(dist_a, dist_b)
                        assert ratio <= bound
                        sharp = max(sharp, ratio)
            # some seed separates the two zones, where the bound is tight
            assert sharp == pytest.approx(math.exp(epsilon), rel=1e-9)


class TestAggregate:
    def test_unbiased_on_concentrated_population(self):
        mech = OptimizedLocalHashing(l_zones=8, epsilon=2.0)
        rng = np.random.default_rng(89)
        n, trials = 20_000, 10
        raws = []
        for _ in range(trials):
            batch = mech.perturb_batch(np.zeros(n, dtype=np.int64), rng)
            raws.append(mech.aggregate(batch).raw)
        raws = np.stack(raws)
        mean = raws.mean(axis=0)
        se = raws.std(axis=0, ddof=1) / math.sqrt(trials)
        truth = np.zeros(8)
        truth[0] = n
        assert np.all(np.abs(mean - truth) <= 3.0 * se)

    def test_order_independent(self):
        mech = OptimizedLocalHashing(l_zones=6, epsilon=1.0)
        rng = np.random.default_rng(97)
        batch = mech.perturb_batch(rng.integers(0, 6, size=5000), rng)
        perm = rng.permutation(5000)
        shuffled = OlhBatch(hash_seed=batch.hash_seed[perm], value=batch.value[perm])
        assert np.array_equal(mech.aggregate(batch).raw, mech.aggregate(shuffled).raw)

    def test_report_sequence_equals_batch(self):
        mech = OptimizedLocalHashing(l_zones=4, epsilon=1.0)
        rng = np.random.default_rng(101)
        batch = mech.perturb_batch(rng.integers(0, 4, size=300), rng)
        reports = payloads(batch)
        assert np.array_equal(
            mech.aggregate(reports).raw, mech.aggregate(batch).raw
        )

    def test_empty_input_gives_zero_estimate(self):
        mech = OptimizedLocalHashing(l_zones=4, epsilon=1.0)
        est = mech.aggregate([])
        assert est.raw.tolist() == [0.0] * 4
        assert est.n_reports == 0

    def test_out_of_range_report_value_rejected(self):
        mech = OptimizedLocalHashing(l_zones=4, epsilon=1.0)
        bad = OlhBatch(
            hash_seed=np.array([1], dtype=np.uint64),
            value=np.array([mech.g], dtype=np.int64),
        )
        with pytest.raises(ValueError):
            mech.aggregate(bad)

    def test_noiseless_limit_recovers_single_report_exactly(self):
        # at eps = 50 the keep probability is 1 up to 5e-13, so one report
        # decodes to its own zone's one-hot counts after rounding
        mech = OptimizedLocalHashing(l_zones=4, epsilon=50.0)
        rng = np.random.default_rng(103)
        est = mech.aggregate(mech.perturb_batch([2], rng))
        assert est.rounded().tolist() == [0, 0, 1, 0]


class TestBlockedReplay:
    """The aggregator replays the users' hashes in blocks of
    ``_SMALL_BLOCK_CELLS // L`` users on one core; the reference is the whole
    n x L replay."""

    L = 1000

    def reference_raw(self, mech, batch):
        zone_ids = np.arange(mech.l_zones, dtype=np.int64)
        buckets = hash_bucket_array(batch.hash_seed[:, None], zone_ids[None, :], mech.g)
        counts = (buckets == batch.value[:, None]).sum(axis=0)
        return estimate_frequency(counts, batch.n_reports, mech.probabilities()).raw

    def test_matches_the_whole_replay_at_block_edges(self):
        mech = OptimizedLocalHashing(l_zones=self.L, epsilon=2.0)
        step = _SMALL_BLOCK_CELLS // self.L
        for n in (step - 1, step, step + 1, 3 * step + 7):
            rng = np.random.default_rng(n)
            batch = mech.perturb_batch(rng.integers(0, self.L, size=n), rng)
            got = mech.aggregate(batch).raw
            assert np.array_equal(got, self.reference_raw(mech, batch)), n

    def test_scratch_memory_is_bounded_by_the_block(self):
        mech = OptimizedLocalHashing(l_zones=200, epsilon=1.0)
        rng = np.random.default_rng(7)
        n = 40_000  # the whole replay would hold 64 MB per n x L array
        batch = mech.perturb_batch(rng.integers(0, 200, size=n), rng)
        tracemalloc.start()
        try:
            mech.aggregate(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block holds its hashes, one scratch array and the comparison
        # with the reports, 17 bytes a cell, over all threads
        assert peak <= 3 * 8 * _SMALL_BLOCK_CELLS
