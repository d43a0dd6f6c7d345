"""Error metrics and the ranking-distance oracle equivalence."""
import itertools
import math

import numpy as np
import pytest

from zoneldp.errors import DegenerateRange
from zoneldp.metrics import (
    kendall_tau_distance,
    metric_report,
    nrmse,
    rank_zones,
    rmse,
)


def brute_force_discordant_pairs(tau1, tau2):
    """O(L^2) reference: count item pairs ordered oppositely."""
    pos1 = {item: i for i, item in enumerate(tau1)}
    pos2 = {item: i for i, item in enumerate(tau2)}
    count = 0
    for a, b in itertools.combinations(tau1, 2):
        if (pos1[a] - pos1[b]) * (pos2[a] - pos2[b]) < 0:
            count += 1
    return count


class TestRmse:
    def test_hand_computed_value(self):
        # errors (3, 0, -4) -> sqrt(25/3)
        value = rmse(np.array([10.0, 5.0, 8.0]), np.array([7.0, 5.0, 12.0]))
        assert value == pytest.approx(math.sqrt(25.0 / 3.0), rel=1e-12)

    def test_zero_on_exact_match(self):
        z = np.array([4.0, 9.0, 1.0])
        assert rmse(z, z.copy()) == 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))


class TestNrmse:
    def test_normalizes_by_true_range(self):
        z = np.array([0.0, 10.0])
        z_hat = np.array([1.0, 9.0])
        assert nrmse(z, z_hat) == pytest.approx(rmse(z, z_hat) / 10.0, rel=1e-12)

    def test_flat_truth_raises(self):
        with pytest.raises(DegenerateRange):
            nrmse(np.array([5.0, 5.0, 5.0]), np.array([4.0, 5.0, 6.0]))


class TestRankZones:
    def test_descending_counts(self):
        assert rank_zones(np.array([5.0, 20.0, 1.0])) == [1, 0, 2]

    def test_ties_break_to_lower_zone(self):
        assert rank_zones(np.array([7.0, 9.0, 9.0, 7.0])) == [1, 2, 0, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rank_zones(np.array([]))


def pair_count(tau1, tau2):
    """``brute_force_discordant_pairs`` over every pair at once, for
    rankings of 0..L-1."""
    pos1, pos2 = np.argsort(tau1), np.argsort(tau2)
    i, j = np.triu_indices(len(tau1), 1)
    return int(np.count_nonzero((pos1[i] < pos1[j]) != (pos2[i] < pos2[j])))


class TestKendallTauDistance:
    def test_identical_rankings(self):
        assert kendall_tau_distance([0, 1, 2, 3], [0, 1, 2, 3]) == 0

    def test_full_reversal_is_all_pairs(self):
        ranking = list(range(8))
        assert kendall_tau_distance(ranking, ranking[::-1]) == 28  # 8*7/2

    def test_single_swap(self):
        assert kendall_tau_distance([0, 1, 2], [1, 0, 2]) == 1

    def test_string_items(self):
        assert kendall_tau_distance(["a", "b", "c"], ["c", "a", "b"]) == 2

    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            kendall_tau_distance([0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            kendall_tau_distance([0, 0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            kendall_tau_distance([0, 1, 2], [0, 1, 3])

    def test_matches_brute_force_for_all_small_permutation_pairs(self):
        for size in range(1, 5):
            items = list(range(size))
            for tau1 in itertools.permutations(items):
                for tau2 in itertools.permutations(items):
                    assert kendall_tau_distance(tau1, tau2) == (
                        brute_force_discordant_pairs(tau1, tau2)
                    )

    def test_matches_brute_force_on_random_larger_rankings(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            size = int(rng.integers(5, 30))
            tau1 = list(rng.permutation(size))
            tau2 = list(rng.permutation(size))
            assert kendall_tau_distance(tau1, tau2) == (
                brute_force_discordant_pairs(tau1, tau2)
            )

    @pytest.mark.parametrize("size", [1, 2, 3, 31, 32, 33, 368, 1733])
    def test_counter_matches_pair_count_on_tied_vectors(self, size):
        # both sides of the run width, several merge levels, and counts
        # with ties, which the ranking breaks toward the lower index
        rng = np.random.default_rng(size)
        for _ in range(3):
            truth = rng.integers(0, 6, size=size).astype(np.float64)
            raw = np.round(rng.normal(0.0, 2.0, size=size))
            tau1, tau2 = rank_zones(truth), rank_zones(raw)
            want = pair_count(tau1, tau2)
            assert kendall_tau_distance(tau1, tau2) == want
            report = metric_report(truth, raw)
            assert report.kendall_tau == want and type(report.kendall_tau) is int

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            size = int(rng.integers(3, 10))
            a = list(rng.permutation(size))
            b = list(rng.permutation(size))
            c = list(rng.permutation(size))
            assert kendall_tau_distance(a, b) == kendall_tau_distance(b, a)
            assert kendall_tau_distance(a, c) <= (
                kendall_tau_distance(a, b) + kendall_tau_distance(b, c)
            )


class TestMetricReport:
    def test_bundles_all_three(self):
        truth = np.array([10.0, 30.0, 20.0])
        estimate = np.array([12.0, 28.0, 21.0])
        report = metric_report(truth, estimate)
        assert report.rmse == pytest.approx(rmse(truth, estimate), rel=1e-12)
        assert report.nrmse == pytest.approx(report.rmse / 20.0, rel=1e-12)
        assert report.kendall_tau == 0

    def test_flat_truth_gives_none_nrmse(self):
        report = metric_report(np.array([5.0, 5.0]), np.array([4.0, 6.0]))
        assert report.nrmse is None
        assert report.rmse == pytest.approx(1.0, rel=1e-12)

    def test_ranks_come_from_raw_values(self):
        # raw keeps -3 below -1; clamping would collapse both to zero
        truth = np.array([9.0, 1.0, 3.0])
        raw = np.array([8.5, -3.0, -1.0])
        report = metric_report(truth, raw)
        assert report.kendall_tau == 0
