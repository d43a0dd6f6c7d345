"""Tests for the cohort-hashed bit-vector mechanism.

Covers the per-bit pair, the reduction against a flat bincount, the
nonnegative lasso solver, the Gram assembly against a comparison loop, exact decoding on clean reports, report
privacy via an independent enumeration, the singular-fit guard, the
regularized aggregate, the digests of seeded rounds and the one BLAS
thread the decode runs on, which keeps those digests the same for any
BLAS thread count. Cases it shares with CMS, the same hashed sketch, come
from sketch_cases.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import ldp_enum
import sketch_cases
from ldp_enum import LANE
from rappor_reference import (
    bincount_reduce,
    capped_holdout_fit,
    capped_nonneg_lasso,
    cd_nonneg_lasso,
    loop_normal_equations,
)
from zoneldp.errors import SingularFitWarning
from zoneldp.oracles import base, rappor
from zoneldp.oracles.base import _BLOCK_CELLS, one_blas_thread
from zoneldp.oracles.rappor import _LAMBDA_GRID, Rappor, RapporBatch, nonneg_lasso
from zoneldp.simulator import run_round


class Cohorts(sketch_cases.Sketch):
    batch_type = RapporBatch
    row_field = "cohort"

    @staticmethod
    def make(l_zones, epsilon, rows, width, hash_seed=0):
        return Rappor(l_zones, epsilon, k=width, m=rows, hash_seed=hash_seed)


class TestProbabilities(Cohorts, sketch_cases.Probabilities):
    pass


def flip_rate(epsilon):
    # f = 2/(e^{eps/2} + 1), recovered from the pair the mechanism reports
    return 2.0 * Rappor(l_zones=4, epsilon=epsilon, k=8, m=4).probabilities().q


class TestFlipParameter:
    def test_frozen_value_at_eps_two(self):
        # hand-computed from the definition: f = 2/(e^{eps/2} + 1), and
        # q = f/2 rounded up onto the 2^-16 grid of the client's lanes
        assert flip_rate(2.0) == 2.0 * 17626 / LANE
        assert flip_rate(2.0) == 2.0 * math.ceil(0.5378828427399902 / 2.0 * LANE) / LANE

    def test_per_bit_pair_derives_from_f(self):
        for epsilon in (0.5, 1.0, 2.0):
            f = 2.0 / (math.exp(epsilon / 2.0) + 1.0)
            probs = Rappor(l_zones=4, epsilon=epsilon, k=8, m=4).probabilities()
            assert probs.p == math.floor((1.0 - f / 2.0) * LANE) / LANE
            assert probs.q == math.ceil(f / 2.0 * LANE) / LANE


class TestNonnegLasso:
    def test_identity_gram_soft_thresholds(self):
        # separable problem: each coordinate is max(0, l_v - penalty)
        gram = np.eye(2)
        linear = np.array([3.0, -1.0])
        np.testing.assert_allclose(nonneg_lasso(gram, linear, 0.0), [3.0, 0.0])
        np.testing.assert_allclose(nonneg_lasso(gram, linear, 1.0), [2.0, 0.0])

    def test_penalty_at_max_zeroes_everything(self):
        beta = nonneg_lasso(np.eye(2), np.array([3.0, -1.0]), 3.0)
        np.testing.assert_allclose(beta, [0.0, 0.0])

    def test_collinear_design_resolved_by_cycle_order(self):
        # both coordinates explain the same signal; the first one visited
        # absorbs it and the second sees an exactly zero residual
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        linear = np.array([2.0, 2.0])
        np.testing.assert_allclose(nonneg_lasso(gram, linear, 0.0), [2.0, 0.0])

    def test_zero_curvature_coordinate_stays_zero(self):
        gram = np.diag([1.0, 0.0])
        linear = np.array([1.0, 5.0])
        np.testing.assert_allclose(nonneg_lasso(gram, linear, 0.0), [1.0, 0.0])

    def test_degenerate_coordinate_ends_at_a_tried_support(self):
        # the minimizer is (1, 0, 1) and coordinate 1's gradient there is
        # exactly 0, so rounding can alternate the support solves between
        # {0, 2} and {0, 1, 2}; the stop on a tried support ends that
        gram = np.array([[17.0, -1.0, -10.0], [-1.0, 2.0, -2.0], [-10.0, -2.0, 13.0]])
        linear = np.array([7.0, -3.0, 3.0])
        np.testing.assert_allclose(nonneg_lasso(gram, linear, 0.0), [1.0, 0.0, 1.0], atol=1e-12)

    def test_matches_exact_solve_on_interior_problems(self):
        # when the unconstrained optimum is strictly positive the
        # constraint is slack and the solver must agree with a plain solve
        rng = np.random.default_rng(8)
        for _ in range(20):
            half = rng.normal(size=(6, 4))
            gram = half.T @ half + 0.5 * np.eye(4)
            target = rng.uniform(1.0, 3.0, size=4)
            linear = gram @ target
            np.testing.assert_allclose(
                nonneg_lasso(gram, linear, 0.0), target, atol=1e-8
            )


def rappor_system(l_zones, m, k, seed, mutate=None):
    """Normal equations of one simulated aggregate, assembled as
    ``aggregate`` does: the sum of the two cohort parities' systems.
    ``mutate`` may edit the target table first."""
    mech = Rappor(l_zones, 1.0, k=k, m=m, hash_seed=seed)
    if mutate is not None:
        mutate(mech.targets)
    rng = np.random.default_rng(seed)
    n = 40 * l_zones
    batch = mech.perturb_batch(rng.integers(0, l_zones, size=n), rng)
    (g_even, l_even), (g_odd, l_odd) = mech._normal_equations(mech.reduce(batch))
    return g_even + g_odd, l_even + l_odd


def small_system(rng):
    """A random system of 2 to 8 coordinates, G = A'A with linear term in
    A's row space, so the minimum is finite. A has 1 to size + 2 rows, so
    about two in three systems are rank-deficient; some draws also repeat
    a column or zero one. Returns the system, a penalty and whether G is
    positive definite."""
    size = int(rng.integers(2, 9))
    half = rng.normal(size=(int(rng.integers(1, size + 3)), size))
    if rng.random() < 0.25:
        half[:, rng.integers(size)] = half[:, rng.integers(size)]
    if rng.random() < 0.2:
        half[:, rng.integers(size)] = 0.0
    linear = 3.0 * half.T @ rng.normal(size=half.shape[0])
    penalty = rng.uniform(0.0, 0.3) * max(linear.max(), 0.0)
    return half.T @ half, linear, penalty, np.linalg.matrix_rank(half) == size


def assert_matches_descent(beta, gram, linear, penalty):
    reference = cd_nonneg_lasso(gram, linear, penalty)
    assert np.abs(beta - reference).max() <= 1e-8 * np.abs(reference).max()


class TestSolverMatchesDescent:
    """The exact support solve returns the point coordinate descent from
    zero converges to, within 1e-8 relative, from any warm start."""

    @pytest.mark.parametrize("l_zones, m, k", [(8, 64, 16), (60, 256, 32), (373, 1024, 64)])
    def test_penalty_path_cold_and_warm(self, l_zones, m, k):
        gram, linear = rappor_system(l_zones, m, k, seed=l_zones)
        rng = np.random.default_rng(l_zones)
        path = None
        for rel in _LAMBDA_GRID:
            penalty = rel * linear.max()
            path = nonneg_lasso(gram, linear, penalty, path)
            assert_matches_descent(path, gram, linear, penalty)
            assert_matches_descent(nonneg_lasso(gram, linear, penalty), gram, linear, penalty)
            scattered = rng.uniform(0.0, 2.0 * linear.max() / gram[0, 0], size=l_zones)
            assert_matches_descent(
                nonneg_lasso(gram, linear, penalty, scattered), gram, linear, penalty
            )

    @pytest.mark.parametrize(
        "l_zones, m, k, seed, mutate",
        [
            (60, 1, 16, 5, None),  # one cohort: zones sharing a bucket are identical
            (60, 2, 16, 5, None),  # rank at most 2k < L
            (60, 4, 8, 5, None),  # rank at most mk < L
            # zone 1 hashed like zone 0 everywhere: descent gives zone 0
            # the mass, and an unchecked solve on the pair can pick zone 1
            (40, 64, 16, 1, lambda t: t.__setitem__((slice(None), 1), t[:, 0])),
        ],
        ids=["m1", "m2", "mk-below-L", "collinear-pair"],
    )
    def test_singular_systems(self, l_zones, m, k, seed, mutate):
        gram, linear = rappor_system(l_zones, m, k, seed, mutate)
        for rel in _LAMBDA_GRID:
            penalty = rel * linear.max()
            assert_matches_descent(nonneg_lasso(gram, linear, penalty), gram, linear, penalty)

    def test_random_small_systems(self):
        # a rank-deficient system can have many minimizers, and descent on
        # a collinear support can stop at the sweep cap unconverged; there
        # the fit is held to the capped-exchange solver's, bit for bit
        # (a fit stopped at the cap warns, and only a singular system's may)
        rng = np.random.default_rng(24)
        for _ in range(200):
            gram, linear, penalty, definite = small_system(rng)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                beta = nonneg_lasso(gram, linear, penalty)
            for warning in caught:
                assert not definite and warning.category is SingularFitWarning
                assert "unconverged" in str(warning.message)
            if definite:
                assert_matches_descent(beta, gram, linear, penalty)
            else:
                assert np.array_equal(beta, capped_nonneg_lasso(gram, linear, penalty))

    def test_a_fit_stopped_at_the_sweep_cap_warns(self):
        # a rank-deficient 3-coordinate system whose descent, on a
        # collinear support, has not met its stopping rule after the cap
        gram, linear, penalty, definite = small_system(np.random.default_rng(1121))
        assert gram.shape == (3, 3) and not definite
        match = rf"penalty {penalty:.6g} stopped unconverged after 400 sweeps, last"
        with pytest.warns(SingularFitWarning, match=match):
            beta = nonneg_lasso(gram, linear, penalty)
        assert np.array_equal(beta, capped_nonneg_lasso(gram, linear, penalty))

    def test_dead_coordinate(self):
        gram, linear = rappor_system(30, 64, 16, seed=6)
        gram[3, :] = gram[:, 3] = 0.0
        linear[3] = 10.0 * linear.max()
        for rel in _LAMBDA_GRID:
            penalty = rel * linear.max()
            beta = nonneg_lasso(gram, linear, penalty, np.full(30, 1.0))
            assert beta[3] == 0.0
            assert_matches_descent(beta, gram, linear, penalty)


def random_stats(mech, rng, per_cohort):
    """A RAPPOR statistic of 1..per_cohort - 1 reports per cohort, each
    bit set by any number of its cohort's reports."""
    sizes = rng.integers(1, per_cohort, size=mech.m)
    counts = rng.integers(0, sizes[:, None] + 1, size=(mech.m, mech.k))
    return mech._stats(int(sizes.sum()), counts, sizes)


def loop_halves(mech, stats):
    """Each cohort parity's system by the comparison loop."""
    probs = mech.probabilities()
    debiased = (stats.counts - stats.row_sizes[:, None] * probs.q) / (probs.p - probs.q)
    weights = stats.row_sizes / stats.n_reports
    return [
        loop_normal_equations(
            mech.targets[parity::2], weights[parity::2], debiased[parity::2], mech.l_zones
        )
        for parity in (0, 1)
    ]


class TestReduce:
    """Byte-lane sums over cohort-sorted rows equal the flat bincount."""

    @staticmethod
    def assert_matches_bincount(m, cohort, bits):
        mech = Rappor(l_zones=4, epsilon=1.0, k=bits.shape[1], m=m)
        stats = mech.reduce(RapporBatch(cohort=cohort, bits=bits))
        counts, sizes = bincount_reduce(cohort, bits, m)
        assert stats.counts.dtype == stats.row_sizes.dtype == np.int64
        assert np.array_equal(stats.counts, counts)
        assert np.array_equal(stats.row_sizes, sizes)
        assert stats.n_reports == len(cohort)
        return stats

    @pytest.mark.parametrize("m", [1, 2, 1024])
    @pytest.mark.parametrize("k", [1, 7, 8, 13, 64, 65])
    def test_matches_bincount(self, m, k):
        # widths on and off whole 64-bit words; at m = 1024 a third of the
        # cohorts get no report
        rng = np.random.default_rng(m * 100 + k)
        cohort = rng.integers(0, m, size=1000)
        bits = rng.integers(0, 2, size=(1000, k), dtype=np.uint8)
        self.assert_matches_bincount(m, cohort, bits)

    @pytest.mark.parametrize("ones", [254, 255, 256, 510, 511])
    @pytest.mark.parametrize("k", [13, 64])
    def test_a_cohort_of_ones_across_segment_bounds(self, ones, k):
        # 255 all-ones rows fill a byte lane exactly; 256 and 511 start a
        # second and a third segment. Cohorts 6 and 7 stay empty
        rng = np.random.default_rng(ones + k)
        cohort = np.concatenate([np.full(ones, 5), rng.integers(0, 5, size=300)])
        bits = rng.integers(0, 2, size=(cohort.size, k), dtype=np.uint8)
        bits[:ones] = 1
        order = rng.permutation(cohort.size)
        stats = self.assert_matches_bincount(8, cohort[order], bits[order])
        assert np.all(stats.counts[5] == ones)
        assert not stats.counts[6:].any() and not stats.row_sizes[6:].any()

    @pytest.mark.parametrize("m", [1, 3, 1024])
    def test_one_report(self, m):
        for cohort in (0, m - 1):
            self.assert_matches_bincount(m, np.array([cohort]), np.ones((1, 13), dtype=np.uint8))

    def test_strided_and_wider_bits_are_cast(self):
        # a view with strides on both axes, and bits held as bool or int64:
        # each bit counts once, never as the bytes of a wider value
        rng = np.random.default_rng(7)
        wide = rng.integers(0, 2, size=(600, 40), dtype=np.uint8)
        cohort = rng.integers(0, 16, size=300)
        view = wide[::2, 1::3]
        assert not view.flags.c_contiguous
        for bits in (view, view.astype(bool), view.astype(np.int64)):
            self.assert_matches_bincount(16, cohort, bits)

    @pytest.mark.parametrize("n, bound", [(354, 1_000_000), (65_536, 6_000_000)])
    def test_allocates_little_beyond_its_table(self, n, bound):
        # the 1024 x 64 int64 table is 0.5 MB; the sorted rows of a full
        # 65,536-row chunk are 4 MB, against 9 MB for the flat bincount's
        # int64 keys and float64 weights
        mech = Rappor(l_zones=8, epsilon=1.0, hash_seed=2)
        rng = np.random.default_rng(n)
        batch = mech.perturb_batch(rng.integers(0, 8, size=n), rng)
        tracemalloc.start()
        try:
            mech.reduce(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_a_round_of_two_chunks_is_one_reduce(self):
        # 70,000 reports of 64 bits are two chunks, reduced one at a time
        users = np.random.default_rng(3).integers(0, 8, size=70_000)
        chunks = []
        est = run_round(users, 8, "RAPPOR", 1.0, rng=np.random.default_rng(4),
                        collect_reports=chunks.append)
        assert len(chunks) == 2
        hash_seed = int(np.random.default_rng(4).integers(0, 1 << 63))
        mech = Rappor(l_zones=8, epsilon=1.0, hash_seed=hash_seed)
        whole = mech.reduce(RapporBatch.concat(chunks))
        summed = mech.reduce(chunks[0]) + mech.reduce(chunks[1])
        assert summed.n_reports == whole.n_reports == 70_000
        assert np.array_equal(summed.counts, whole.counts)
        assert np.array_equal(summed.row_sizes, whole.row_sizes)
        assert np.array_equal(est.raw, mech.aggregate(whole).raw)


class TestGramAssembly:
    """The same-bucket pair assembly of each cohort parity equals the
    comparison loop over that parity's cohorts."""

    @staticmethod
    def assert_matches_loop(mech, stats):
        halves = mech._normal_equations(stats)
        for (gram, linear), (want_gram, want_linear) in zip(halves, loop_halves(mech, stats)):
            np.testing.assert_allclose(gram, want_gram, rtol=1e-12)
            np.testing.assert_allclose(linear, want_linear, rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 1024])
    @pytest.mark.parametrize("k", [8, 64])
    def test_matches_comparison_loop(self, m, k):
        # 20 zones: k = 8 forces shared buckets, k = 64 leaves most alone;
        # at m = 1 the odd half is empty
        mech = Rappor(l_zones=20, epsilon=1.0, k=k, m=m, hash_seed=m)
        self.assert_matches_loop(mech, random_stats(mech, np.random.default_rng(m + k), 30))

    def test_matches_comparison_loop_across_blocks(self):
        # at L = 373 each half's cohorts and the mirror strips span
        # several blocks
        mech = Rappor(l_zones=373, epsilon=1.0, k=64, m=1024, hash_seed=9)
        self.assert_matches_loop(mech, random_stats(mech, np.random.default_rng(9), 30))

    def test_scratch_stays_within_blocks(self):
        # 1024 cohorts at L = 1733 hold about 24M same-bucket pairs; the
        # assembly may hold the two L x L results and a block's worth besides
        mech = Rappor(l_zones=1733, epsilon=1.0, k=64, m=1024, hash_seed=0)
        stats = random_stats(mech, np.random.default_rng(0), 40)
        tracemalloc.start()
        try:
            halves = mech._normal_equations(stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch = peak - sum(gram.nbytes + linear.nbytes for gram, linear in halves)
        assert scratch <= 2 * _BLOCK_CELLS * 8


class TestConstruction(Cohorts, sketch_cases.Construction):
    def test_rejects_bad_sizes_and_decoder(self):
        with pytest.raises(ValueError):
            Rappor(l_zones=4, epsilon=1.0, k=0)
        with pytest.raises(ValueError):
            Rappor(l_zones=4, epsilon=1.0, m=0)


class TestPerturb(Cohorts, sketch_cases.Perturb):
    test_cohorts_roughly_uniform = sketch_cases.Perturb.row_index_roughly_uniform


class TestExactRecovery:
    """Given the encoded bits themselves (even at eps = 50 a bit flips
    with probability 2^-16), and whenever the realized cohort mix is
    consistent with the fitted model, the decoder must return the exact
    histogram once rounded.

    A multi-zone population with randomly drawn cohorts is NOT exactly
    recoverable even with clean bits: the fit models each zone as splitting
    across cohorts proportionally to cohort size, and random assignment
    leaves a fluctuation around that. The two cases below are the ones
    where the system is exactly consistent, up to the noise floor n*q
    that debiasing subtracts from every bit.
    """

    @staticmethod
    def clean_batch(mech, cohorts, zones):
        bits = np.zeros((len(zones), mech.k), dtype=np.uint8)
        bits[np.arange(len(zones)), mech.targets[cohorts, zones]] = 1
        return RapporBatch(cohort=np.asarray(cohorts, dtype=np.int64), bits=bits)

    @pytest.mark.parametrize("decoder", ["lasso"])
    def test_single_zone_population_end_to_end(self, decoder):
        # every cohort's bit of zone 3 is set by all its n_c users, so the
        # fit is exact at beta_3 = n (1 - q)/(p - q), with the pair on the
        # 2^-16 grid, (1 - 2^-16, 2^-16): 200.00305..., hand-computed
        mech = Rappor(l_zones=8, epsilon=50.0, k=64, m=4, hash_seed=0)
        p, q = 1.0 - 2.0**-16, 2.0**-16
        assert (mech.probabilities().p, mech.probabilities().q) == (p, q)
        cohorts = np.random.default_rng(7).integers(0, mech.m, size=200)
        est = mech.aggregate(self.clean_batch(mech, cohorts, np.full(200, 3)))
        expected = np.zeros(8)
        expected[3] = 200.0 * (1.0 - q) / (p - q)
        np.testing.assert_allclose(est.raw, expected, atol=1e-6)
        assert est.rounded().tolist() == [0, 0, 0, 200, 0, 0, 0, 0]

    @pytest.mark.parametrize("decoder", ["lasso"])
    def test_balanced_cohorts_recover_mixed_population(self, decoder):
        # each zone's users are spread evenly over the cohorts, so the
        # clean-bit system is consistent up to the noise floor; two cohorts
        # of this family have colliding zone pairs, which the fit resolves
        # through the non-colliding cohorts. The holdout keeps the
        # unpenalized fit, so the estimate is coordinate descent's on the
        # comparison-loop system
        truth = np.array([48, 12, 0, 40, 24, 24, 32, 20])
        mech = Rappor(l_zones=8, epsilon=50.0, k=64, m=4, hash_seed=0)
        zones = np.repeat(np.arange(8), truth)
        cohorts = np.concatenate([np.arange(c) % mech.m for c in truth])
        batch = self.clean_batch(mech, cohorts, zones)
        est = mech.aggregate(batch)
        probs = mech.probabilities()
        sizes = np.bincount(cohorts, minlength=mech.m)
        sums = np.zeros((mech.m, mech.k))
        np.add.at(sums, cohorts, batch.bits)
        debiased = (sums - sizes[:, None] * probs.q) / (probs.p - probs.q)
        gram, linear = loop_normal_equations(mech.targets, sizes / zones.size, debiased, 8)
        np.testing.assert_allclose(est.raw, cd_nonneg_lasso(gram, linear, 0.0), atol=1e-6)
        assert est.rounded().tolist() == truth.tolist()


class TestSingularFitGuard:
    """Zones with zero curvature in the normal equations cannot be
    estimated. The decoder pins them to zero and warns. This cannot arise
    through aggregate (every populated cohort gives every zone curvature),
    so the solver is exercised directly on a crafted system.
    """

    @pytest.mark.parametrize("decoder", ["lasso"])
    def test_dead_coordinate_warns_and_pins_to_zero(self, decoder):
        mech = Rappor(l_zones=4, epsilon=1.0, k=16, m=4)
        gram = np.diag([1.0, 2.0, 0.0, 4.0])
        linear = np.array([3.0, 2.0, 5.0, 2.0])
        halves = ((gram / 2, linear / 2), (gram / 2, linear / 2))
        with pytest.warns(SingularFitWarning, match="1 zone"):
            raw = mech._decode(gram, linear, halves)
        np.testing.assert_allclose(raw, [3.0, 1.0, 0.0, 0.5])

    def test_clean_aggregate_does_not_warn(self):
        mech = Rappor(l_zones=4, epsilon=1.0, k=16, m=4)
        batch = mech.perturb_batch(
            np.tile(np.arange(4), 25), np.random.default_rng(3)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", SingularFitWarning)
            mech.aggregate(batch)


class TestPrivacy:
    """The whole report (cohort plus all k bits) must satisfy the
    likelihood-ratio bound e^eps between any two zones.

    The report distribution is enumerated from the definition,
    independently of the implementation; only the public hash table is
    shared.
    """

    def test_ratio_bound_holds_and_is_sharp(self):
        mech = Rappor(l_zones=4, epsilon=1.0, k=4, m=2, hash_seed=3)
        targets = mech.targets.tolist()
        assert targets == [[3, 1, 2, 0], [2, 0, 1, 0]]
        for epsilon in (0.5, 1.0, 2.0):
            bound = math.exp(epsilon)
            dists = [
                ldp_enum.rappor_dist(zone, epsilon, targets, 4) for zone in range(4)
            ]
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

    def test_perturb_matches_enumerated_distribution(self):
        mech = Rappor(l_zones=4, epsilon=1.0, k=4, m=2, hash_seed=3)
        dist = ldp_enum.rappor_dist(0, 1.0, mech.targets.tolist(), 4)
        n = 200_000
        batch = mech.perturb_batch(
            np.zeros(n, dtype=np.int64), np.random.default_rng(29)
        )
        codes = batch.cohort * 16 + batch.bits @ (1 << np.arange(4))
        observed = np.bincount(codes, minlength=32) / n
        for key, prob in dist.items():
            code = key[0] * 16 + sum(bit << i for i, bit in enumerate(key[1:]))
            sigma = math.sqrt(prob * (1 - prob) / n)
            assert abs(observed[code] - prob) < 4 * sigma + 1e-12


class TestAggregate(Cohorts, sketch_cases.Aggregate):
    test_rejects_wrong_bit_width = sketch_cases.Aggregate.rejects_wrong_width
    test_rejects_cohort_out_of_range = sketch_cases.Aggregate.rejects_row_index_out_of_range

    @pytest.mark.parametrize("decoder", ["lasso"])
    def test_unbiased_over_fresh_hash_families(self, decoder):
        # redraw the cohort hash family each trial; the trial mean must sit
        # within 3 standard errors of the truth in every zone
        truth = np.array([5000, 3000, 6000, 2000, 4000])
        zones = np.repeat(np.arange(5), truth)
        raws = []
        for trial in range(20):
            mech = Rappor(
                l_zones=5,
                epsilon=1.0,
                k=16,
                m=64,
                hash_seed=100 + trial,
            )
            rng = np.random.default_rng(10_100 + trial)
            raws.append(mech.aggregate(mech.perturb_batch(zones, rng)).raw)
        raws = np.array(raws)
        stderr = raws.std(axis=0, ddof=1) / math.sqrt(len(raws))
        assert np.all(stderr > 0)
        assert np.all(np.abs(raws.mean(axis=0) - truth) < 3 * stderr)

    def test_allocates_less_than_the_table_at_small_l(self):
        # at L = 8 the fit reads 8 of each cohort's 64 bits; one float64
        # array of the whole 1024 x 64 table is more than the whole
        # aggregate may allocate
        mech = Rappor(l_zones=8, epsilon=1.0, hash_seed=2)
        rng = np.random.default_rng(5)
        stats = mech.reduce(mech.perturb_batch(rng.integers(0, 8, size=354), rng))
        assert stats.counts.shape == (1024, 64)
        table = stats.counts.size * np.dtype(np.float64).itemsize
        tracemalloc.start()
        try:
            mech.aggregate(stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_even_and_odd_halves_sum_to_the_full_assembly(self, m):
        # aggregate assembles the normal equations of both cohort parities
        # in one pass and fits their sum, which must be the system over all
        # m cohorts (at m=1 the odd half is empty)
        mech = Rappor(l_zones=6, epsilon=1.0, k=16, m=m, hash_seed=4)
        rng = np.random.default_rng(41)
        batch = mech.perturb_batch(rng.integers(0, 6, size=400), rng)
        stats = mech.reduce(batch)
        solve = mech._decode
        calls = []

        def spy(gram, linear, halves):
            calls.append((gram, linear, halves))
            return solve(gram, linear, halves)

        mech._decode = spy
        mech.aggregate(batch)
        assert len(calls) == 1
        gram, linear, halves = calls[0]
        for (g_used, l_used), (g_half, l_half) in zip(halves, mech._normal_equations(stats)):
            assert np.array_equal(g_used, g_half) and np.array_equal(l_used, l_half)
        (g_even, l_even), (g_odd, l_odd) = halves
        assert np.array_equal(gram, g_even + g_odd) and np.array_equal(linear, l_even + l_odd)
        probs = mech.probabilities()
        weights = np.bincount(batch.cohort, minlength=m) / 400
        debiased = (stats.counts - stats.row_sizes[:, None] * probs.q) / (probs.p - probs.q)
        want_gram, want_linear = loop_normal_equations(mech.targets, weights, debiased, 6)
        np.testing.assert_allclose(gram, want_gram, rtol=1e-12)
        np.testing.assert_allclose(linear, want_linear, rtol=1e-12)


def skewed_crowd(l_zones, n_users):
    """Zones of ``n_users`` users, drawn with unequal zone weights."""
    rng = np.random.default_rng(l_zones)
    weights = rng.uniform(0.5, 2.0, size=l_zones) ** 2
    return np.sort(rng.choice(l_zones, size=n_users, p=weights / weights.sum()))


# (l_zones, n_users, seed, epsilon, sha256 of the raw estimate)
PINNED_ROUNDS = [
    (8, 354, 0, 0.5, "b94d5cd93710efa0ded8ce03be3d340644cdad487dc72df06a90026aa93ff2ae"),
    (8, 354, 1, 1.0, "22ed4f5b470ad216650cea33c34be63e8668d91198d00e783399a708e3e9325e"),
    (8, 354, 2, 2.0, "54c8d5c9a7069285ac10e6fbc565ae52096caeef7edeb8f49ae576905c476b55"),
    (60, 2000, 0, 0.5, "8b5ff5ba4a4de7bc77eb56df498ea7c674f75831907a3a30d03072f3766b65ca"),
    (60, 2000, 1, 1.0, "daa4a98a40b52df56a421eab6aabe80b23d940e4086326071965752e0bc45c57"),
    (60, 2000, 2, 2.0, "5981c5660c5b67fc307702348863019e48c931c7f905f809062b99e4ce907bf7"),
    (368, 3000, 0, 0.5, "20c7bda30467e4b457a0fc4156285065714e568854f4f84fabeb40b06ec47f37"),
    (368, 3000, 1, 1.0, "bd6f7dc23aefa4efe2d68f38b5a6550f1ff38976ea2ac8d7d4a69ac8aabbcc27"),
    (368, 3000, 2, 2.0, "35278366b483ece116e315016e0814bf9b31473e0c2b991036b84686ade7da84"),
]


def round_digest(l_zones, n_users, seed, epsilon) -> str:
    """sha256 of the raw estimate of a seeded RAPPOR round."""
    users = skewed_crowd(l_zones, n_users)
    raw = run_round(users, l_zones, "RAPPOR", epsilon, rng=np.random.default_rng(seed)).raw
    return hashlib.sha256(raw.tobytes()).hexdigest()


class TestPinnedRounds:
    """sha256 of seeded RAPPOR rounds' raw estimates. At L = 8 and 60 each
    cohort parity is one block of the Gram assembly; at L = 368 a parity
    spans several, so a change to the blocks' addition order shows here.

    The digests are what one BLAS thread gives, the only count the decode
    runs on. The L = 368, seed-2 round held the two-thread digest
    5f33a28a... while the decode ran on OpenBLAS's default thread count:
    its Cholesky factors and solves round differently from about 130 rows
    on, and that round's support systems reach several hundred."""

    @pytest.mark.parametrize("l_zones, n_users, seed, epsilon, digest", PINNED_ROUNDS)
    def test_raw_estimates_are_pinned(self, l_zones, n_users, seed, epsilon, digest):
        assert round_digest(l_zones, n_users, seed, epsilon) == digest


class TestPathOrder:
    """Exchanges run to their fixed point and each half's penalty path is
    fitted from the sparsest fit down, yet every fit lands on the support
    the capped-exchange, ascending-path reference reaches."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("l_zones, n_users", [(8, 354), (60, 2000), (368, 17_000)])
    def test_decode_matches_capped_reference(self, l_zones, n_users, epsilon, seed):
        rng = np.random.default_rng(seed)
        mech = Rappor(l_zones, epsilon, hash_seed=int(rng.integers(0, 2**63)))
        stats = mech.reduce(mech.perturb_batch(skewed_crowd(l_zones, n_users), rng))
        # the reference runs on the decode's one BLAS thread
        with one_blas_thread():
            halves = mech._normal_equations(stats)
            (g_even, l_even), (g_odd, l_odd) = halves
            want = capped_holdout_fit(g_even + g_odd, l_even + l_odd, halves)
        assert mech.decode(stats).raw.tobytes() == want.tobytes()

    def test_a_venue_sized_round_runs_no_sweep(self, monkeypatch):
        sweeps = []
        sweep = rappor._cd_sweep

        def spy(*args):
            sweeps.append(True)
            return sweep(*args)

        monkeypatch.setattr(rappor, "_cd_sweep", spy)
        run_round(skewed_crowd(368, 17_000), 368, "RAPPOR", 1.0, rng=np.random.default_rng(0))
        assert sweeps == []


# a round at L = 1733, where OpenBLAS also splits the normal equations'
# matrix-vector products over its threads
WIDE_ROUND = (1733, 5000, 0, 1.0)


def test_digests_do_not_depend_on_the_blas_thread_count():
    """The pinned rounds and one wide round, each under 1, 2 and 4 OpenBLAS
    threads in a fresh interpreter, one at a time, give the same digests."""
    tests = Path(__file__).resolve().parent
    src = Path(rappor.__file__).resolve().parents[2]
    cases = [case[:4] for case in PINNED_ROUNDS] + [WIDE_ROUND]
    probe = (
        "import json, sys, test_rappor as t; "
        "print(json.dumps([t.round_digest(*case) for case in json.loads(sys.argv[1])]))"
    )
    digests = {}
    for threads in (1, 2, 4):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join((str(tests), str(src)))
        out = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(cases)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests[threads] = json.loads(out.stdout.splitlines()[-1])
    assert digests[1] == digests[2] == digests[4]


class TestOneBlasThread:
    """``one_blas_thread`` holds OpenBLAS to one thread inside a decode and
    puts the caller's count back after it, however the decode ends."""

    @pytest.fixture
    def blas(self):
        """numpy's OpenBLAS (get, set), at a count of 3 for the test."""
        calls = base._openblas_threads()
        if calls is None:
            pytest.skip("numpy does not run on its bundled OpenBLAS")
        get, set_ = calls
        before = get()
        set_(3)
        yield get, set_
        set_(before)

    @staticmethod
    def spy_decode(monkeypatch, body):
        """Makes ``Rappor._decode`` call ``body()`` before it fits."""
        fit = Rappor._decode

        def spy(self, *args):
            body()
            return fit(self, *args)

        monkeypatch.setattr(Rappor, "_decode", spy)

    @staticmethod
    def stats(l_zones=8, n_users=354, seed=0):
        mech = Rappor(l_zones, 1.0, hash_seed=seed)
        rng = np.random.default_rng(seed)
        return mech, mech.reduce(mech.perturb_batch(skewed_crowd(l_zones, n_users), rng))

    def test_a_decode_runs_on_one_thread_and_restores_the_count(self, blas, monkeypatch):
        get, _ = blas
        inside = []
        self.spy_decode(monkeypatch, lambda: inside.append(get()))
        mech, stats = self.stats()
        mech.decode(stats)
        assert inside == [1]
        assert get() == 3

    def test_a_decode_that_raises_restores_the_count(self, blas, monkeypatch):
        get, _ = blas
        inside = []

        def fail():
            inside.append(get())
            raise RuntimeError("fit failed")

        self.spy_decode(monkeypatch, fail)
        mech, stats = self.stats()
        with pytest.raises(RuntimeError, match="fit failed"):
            mech.decode(stats)
        assert inside == [1]
        assert get() == 3

    def test_overlapping_decodes_restore_only_when_both_are_out(self, blas, monkeypatch):
        get, _ = blas
        both_in, first_out = threading.Barrier(2, timeout=30), threading.Event()
        seen, errors = {}, []

        def meet():
            name = threading.current_thread().name
            seen[name] = [get()]
            both_in.wait()
            if name == "second":
                # the first decode has returned; this one still holds the pin
                assert first_out.wait(30)
                seen[name].append(get())

        self.spy_decode(monkeypatch, meet)
        mech, stats = self.stats()

        def run():
            try:
                mech.decode(stats)
            except Exception as error:  # reported below, not lost in the thread
                errors.append(error)
            if threading.current_thread().name == "first":
                first_out.set()

        threads = [threading.Thread(target=run, name=name) for name in ("first", "second")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert errors == []
        assert seen == {"first": [1], "second": [1, 1]}
        assert get() == 3

    def test_many_threads_entering_at_once_never_unpin_each_other(self, blas):
        get, _ = blas
        counts, switch = set(), sys.getswitchinterval()

        def enter():
            for _ in range(500):
                with one_blas_thread():
                    counts.add(get())

        threads = [threading.Thread(target=enter) for _ in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert counts == {1}
        assert get() == 3 and base._blas_holders == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_starts_unpinned(self, blas):
        get, _ = blas
        read, write = os.pipe()
        with one_blas_thread():
            with warnings.catch_warnings():
                # forking with threads alive warns on Python 3.12 and later
                warnings.simplefilter("ignore", DeprecationWarning)
                child = os.fork()
            if child == 0:
                try:
                    report = [get(), base._blas_holders]
                    with one_blas_thread():
                        report.append(get())
                    report.append(get())
                    os.write(write, json.dumps(report).encode())
                finally:
                    os._exit(0)
            os.close(write)
            with os.fdopen(read) as pipe:
                report = json.loads(pipe.read())
            os.waitpid(child, 0)
            assert get() == 1
        assert report == [3, 0, 1, 3]
        assert get() == 3

    def test_decodes_unpinned_without_the_setter(self, blas, monkeypatch):
        get, _ = blas
        mech, stats = self.stats(60, 2000)
        want = mech.decode(stats).raw.tobytes()
        monkeypatch.setattr(base, "_openblas_threads", lambda: None)
        inside = []
        self.spy_decode(monkeypatch, lambda: inside.append(get()))
        assert mech.decode(stats).raw.tobytes() == want
        assert inside == [3]
        assert get() == 3
