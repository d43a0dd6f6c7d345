"""The one-hot randomizer that OUE, CMS and RAPPOR clients share, and the
scalar perturb() that runs a batch of one.

The reference is the direct construction: a threshold matrix holding q
everywhere and p at each row's target bit, compared against one
rng.random((n, width)) draw. The blocked randomizer must give the same
bits for the same seed, at every block boundary.
"""
import tracemalloc

import numpy as np
import pytest

from zoneldp.oracles.base import (
    _BLOCK_CELLS,
    PerturbProbabilities,
    one_hot_rr,
)
from zoneldp.oracles.cms import CountMeanSketch
from zoneldp.oracles.oue import OptimizedUnaryEncoding
from zoneldp.oracles.rappor import Rappor
from zoneldp.oracles.the import ThresholdHistogramEncoding

PROBS = PerturbProbabilities(p=0.62, q=0.38)


def reference_bits(positions, width, probs, rng):
    n = positions.size
    thresholds = np.full((n, width), probs.q)
    thresholds[np.arange(n), positions] = probs.p
    return (rng.random((n, width)) < thresholds).astype(np.uint8)


@pytest.mark.parametrize("width", [1024, 64])
def test_matches_the_threshold_matrix_at_block_edges(width):
    rows = _BLOCK_CELLS // width
    for n in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 7):
        positions = np.random.default_rng(n).integers(0, width, size=n)
        got = one_hot_rr(positions, width, PROBS, np.random.default_rng(31))
        want = reference_bits(positions, width, PROBS, np.random.default_rng(31))
        assert got.dtype == np.uint8 and got.shape == (n, width)
        assert np.array_equal(got, want), n


def test_consumes_exactly_n_times_width_uniforms():
    rng = np.random.default_rng(5)
    one_hot_rr(np.zeros(700, dtype=np.int64), 1024, PROBS, rng)
    ref = np.random.default_rng(5)
    ref.random((700, 1024))
    assert rng.random() == ref.random()


def test_scratch_memory_is_one_bounded_block():
    n, width = 4096, 1024  # 32 MB of uniforms if drawn in one piece
    tracemalloc.start()
    try:
        bits = one_hot_rr(
            np.zeros(n, dtype=np.int64), width, PROBS, np.random.default_rng(2)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - bits.nbytes <= 8 * _BLOCK_CELLS + (1 << 20)


@pytest.mark.parametrize(
    "mech, rows, width, row_field",
    [
        (CountMeanSketch(6, 1.0, k=16, m=1024, hash_seed=3), 16, 1024, "hash_index"),
        (Rappor(6, 1.0, k=64, m=32, hash_seed=3), 32, 64, "cohort"),
    ],
    ids=["CMS", "RAPPOR"],
)
def test_scalar_perturb_is_one_reference_row(mech, rows, width, row_field):
    for zone in range(mech.l_zones):
        report = mech.perturb(zone, np.random.default_rng(zone))
        ref = np.random.default_rng(zone)
        row = int(ref.integers(0, rows))
        want = reference_bits(
            np.array([mech.targets[row, zone]]), width, mech.probabilities(), ref
        )
        assert getattr(report, row_field) == row
        assert report.bits == tuple(want[0].tolist())


def test_oue_batch_is_the_threshold_matrix_over_zones():
    oue = OptimizedUnaryEncoding(300, 1.0)
    zones = np.random.default_rng(4).integers(0, 300, size=2000)
    batch = oue.perturb_batch(zones, np.random.default_rng(8))
    want = reference_bits(zones, 300, oue.probabilities(), np.random.default_rng(8))
    assert np.array_equal(batch.bits, want)


def test_oue_scalar_perturb_is_one_reference_row():
    oue = OptimizedUnaryEncoding(6, 1.0)
    for zone in range(6):
        report = oue.perturb(zone, np.random.default_rng(zone))
        want = reference_bits(
            np.array([zone]), 6, oue.probabilities(), np.random.default_rng(zone)
        )
        assert report.bits == tuple(want[0].tolist())


def test_the_scalar_perturb_is_one_laplace_row():
    the = ThresholdHistogramEncoding(6, 1.0)
    for zone in range(6):
        report = the.perturb(zone, np.random.default_rng(zone))
        want = np.random.default_rng(zone).laplace(0.0, the.scale, 6)
        want[zone] += 1.0
        assert report.values == tuple(want.tolist())
