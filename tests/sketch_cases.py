"""Test bodies shared by the two hashed-sketch mechanisms.

CMS and RAPPOR are one ``HashedSketch`` under different size names: CMS
has k rows of width m, RAPPOR m cohorts of width k. Each class below is
one test body per case; test_cms.py and test_rappor.py run it for their
mechanism by subclassing it next to a ``Sketch`` subclass that says how to
build the mechanism. Cases whose name differs between the two suites are
bodies without a ``test_`` prefix, bound under each suite's own name.
"""
import math

import numpy as np
import pytest

from ldp_enum import LANE, within_exp
from wire import payloads
from zoneldp.errors import ParamMismatch


class Sketch:
    """How a suite builds its mechanism and names its report fields."""

    batch_type: type
    row_field: str  # the report field holding the row index

    @staticmethod
    def make(l_zones, epsilon, rows, width, hash_seed=0):
        """The mechanism with ``rows`` hash functions of ``width`` bits."""
        raise NotImplementedError

    def batch(self, rows, bits):
        return self.batch_type(
            np.asarray(rows, dtype=np.int64), np.asarray(bits, dtype=np.uint8)
        )


class Probabilities(Sketch):
    def test_frozen_values_at_eps_two(self):
        # hand-computed from the definition: the per-bit budget is eps/2,
        # so at eps = 2 the closed-form pair is (e/(e+1), 1/(e+1)); in
        # RAPPOR's terms q = f/2 and p = 1 - f/2 with f = 2/(e^{eps/2} + 1).
        # The client compares 16-bit lanes, so the pair is held on the
        # 2^-16 grid, p rounded down and q rounded up
        probs = self.make(4, 2.0, rows=4, width=8).probabilities()
        assert probs.p == 47910 / LANE == math.floor(0.7310585786300049 * LANE) / LANE
        assert probs.q == 17626 / LANE == math.ceil(0.2689414213699951 * LANE) / LANE
        f = 0.5378828427399902
        assert probs.q == math.ceil(f / 2.0 * LANE) / LANE
        assert probs.p == math.floor((1.0 - f / 2.0) * LANE) / LANE

    def test_pair_sums_to_one(self):
        for epsilon in (0.3, 1.0, 2.0, 5.0):
            probs = self.make(4, epsilon, rows=4, width=8).probabilities()
            assert probs.p + probs.q == pytest.approx(1.0, abs=1e-15)

    def test_keep_flip_ratio_spends_half_the_budget(self):
        grid = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        pairs = [self.make(4, e, rows=4, width=8).probabilities() for e in grid]
        for epsilon, probs in zip(grid, pairs):
            half = math.exp(epsilon / 2.0)
            assert probs.p == math.floor(half / (half + 1.0) * LANE) / LANE
            assert probs.q == math.ceil(1.0 / (half + 1.0) * LANE) / LANE
            # p/q <= e^{eps/2}, checked exactly on the integer thresholds
            assert within_exp(int(probs.p * LANE), epsilon / 2.0, int(probs.q * LANE))
        # the flip rate falls as the budget grows
        assert all(a.q > b.q for a, b in zip(pairs, pairs[1:]))
        assert all(0.0 < probs.q < 0.5 for probs in pairs)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            self.make(4, 0.0, rows=4, width=8)
        with pytest.raises(ValueError):
            self.make(4, -1.0, rows=4, width=8)


class Construction(Sketch):
    def test_target_table_shape_and_range(self):
        mech = self.make(7, 1.0, rows=5, width=32)
        assert mech.targets.shape == (5, 7)
        assert mech.targets.min() >= 0
        assert mech.targets.max() < 32

    def test_family_seed_changes_the_table(self):
        a = self.make(8, 1.0, rows=8, width=64, hash_seed=0)
        b = self.make(8, 1.0, rows=8, width=64, hash_seed=1)
        assert not np.array_equal(a.targets, b.targets)


class Perturb(Sketch):
    def test_report_shape(self):
        mech = self.make(4, 1.0, rows=6, width=16)
        report = mech.perturb_batch([2], np.random.default_rng(3))
        assert 0 <= getattr(report, self.row_field)[0] < 6
        assert report.bits.shape == (1, 16)
        assert set(report.bits[0].tolist()) <= {0, 1}

    def test_rejects_zone_out_of_range(self):
        mech = self.make(4, 1.0, rows=6, width=16)
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            mech.perturb_batch([4], rng)
        with pytest.raises(ValueError):
            mech.perturb_batch([0, -1], rng)

    def test_deterministic_under_seeded_generator(self):
        mech = self.make(4, 1.0, rows=6, width=16)
        zones = np.tile(np.arange(4), 5)
        first = mech.perturb_batch(zones, np.random.default_rng(9))
        second = mech.perturb_batch(zones, np.random.default_rng(9))
        assert np.array_equal(
            getattr(first, self.row_field), getattr(second, self.row_field)
        )
        assert np.array_equal(first.bits, second.bits)

    def test_batch_bit_rates_match_the_pair(self):
        # the bit a user's own row hashes the zone to fires with
        # probability p, every other bit with probability q; 3 sigma bands
        mech = self.make(4, 2.0, rows=4, width=16, hash_seed=1)
        n = 20_000
        batch = mech.perturb_batch(np.full(n, 1), np.random.default_rng(21))
        own = mech.targets[getattr(batch, self.row_field), 1]
        target_hits = int(batch.bits[np.arange(n), own].sum())
        probs = mech.probabilities()
        sigma = math.sqrt(probs.p * (1 - probs.p) * n)
        assert abs(target_hits - probs.p * n) < 3 * sigma
        other_hits = int(batch.bits.sum()) - target_hits
        cells = n * (16 - 1)
        sigma = math.sqrt(probs.q * (1 - probs.q) * cells)
        assert abs(other_hits - probs.q * cells) < 3 * sigma

    def row_index_roughly_uniform(self):
        mech = self.make(4, 1.0, rows=8, width=16)
        n = 40_000
        batch = mech.perturb_batch(
            np.zeros(n, dtype=np.int64), np.random.default_rng(5)
        )
        counts = np.bincount(getattr(batch, self.row_field), minlength=8)
        sigma = math.sqrt(n * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - n / 8) < 5 * sigma)


class Aggregate(Sketch):
    def test_order_independent(self):
        mech = self.make(5, 1.0, rows=3, width=8, hash_seed=2)
        rng = np.random.default_rng(31)
        batch = mech.perturb_batch(rng.integers(0, 5, size=500), rng)
        perm = rng.permutation(500)
        shuffled = self.batch(getattr(batch, self.row_field)[perm], batch.bits[perm])
        assert np.array_equal(mech.aggregate(batch).raw, mech.aggregate(shuffled).raw)

    def test_report_sequence_matches_batch(self):
        mech = self.make(4, 1.0, rows=3, width=8, hash_seed=2)
        rng = np.random.default_rng(13)
        batch = mech.perturb_batch(rng.integers(0, 4, size=60), rng)
        assert np.array_equal(
            mech.aggregate(payloads(batch)).raw, mech.aggregate(batch).raw
        )

    def test_empty_reports_give_zero_estimate(self):
        mech = self.make(4, 1.0, rows=3, width=8)
        est = mech.aggregate([])
        assert est.n_reports == 0
        assert np.array_equal(est.raw, np.zeros(4))

    def rejects_wrong_width(self):
        mech = self.make(4, 1.0, rows=3, width=8)
        bad = self.batch(np.zeros(2), np.zeros((2, 9)))
        with pytest.raises(ParamMismatch, match="report width 9"):
            mech.aggregate(bad)

    def rejects_row_index_out_of_range(self):
        mech = self.make(4, 1.0, rows=3, width=8)
        bad = self.batch([0, 3], np.zeros((2, 8)))
        with pytest.raises(ParamMismatch, match=rf"{self.row_field} out of range \[0, 3\)"):
            mech.aggregate(bad)
        bad = self.batch([-1, 0], np.zeros((2, 8)))
        with pytest.raises(ParamMismatch, match=self.row_field):
            mech.aggregate(bad)
