"""The one-hot randomizer that OUE, CMS and RAPPOR clients share, and the
scalar perturb() that runs a batch of one.

The reference is the direct construction: a threshold matrix holding q
everywhere and p at each row's target bit, compared against one
rng.random((n, width)) draw. The blocked randomizer must give the same
bits for the same seed, at every block boundary, for any number of row
segments it splits the stream into, and must leave the generator where
that one draw leaves it.
"""
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zoneldp
from zoneldp.oracles import base
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


@pytest.mark.parametrize("rows, width", [(16, 1024), (8, 4), (1, 64)])
def test_cms_and_rappor_are_one_sketch(rows, width):
    # CMS's k rows of width m are RAPPOR's m cohorts of width k: the same
    # table, and the same row draws and bits from the same generator
    cms = CountMeanSketch(9, 1.0, k=rows, m=width, hash_seed=5)
    rappor = Rappor(9, 1.0, k=width, m=rows, hash_seed=5)
    assert np.array_equal(cms.targets, rappor.targets)
    zones = np.random.default_rng(1).integers(0, 9, size=700)
    a = cms.perturb_batch(zones, np.random.default_rng(2))
    b = rappor.perturb_batch(zones, np.random.default_rng(2))
    assert np.array_equal(a.hash_index, b.cohort)
    assert np.array_equal(a.bits, b.bits)


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


@pytest.fixture()
def split(monkeypatch):
    """``split(cores)`` makes ``cores`` CPUs visible to one_hot_rr and
    returns an empty list that then collects every generator copy the
    threads fill from: one per thread when a call splits, none otherwise."""
    copies = []
    copy = base._copy

    def spy(rng):
        copies.append(copy(rng))
        return copies[-1]

    monkeypatch.setattr(base, "_copy", spy)

    def set_cores(cores):
        monkeypatch.setattr(base, "_cores", lambda: cores)
        copies.clear()
        return copies

    return set_cores


def expected_threads(n, width, cores):
    threads = min(cores, -(-n * width // base._BLOCK_CELLS))
    return threads if threads > 1 else 0


@pytest.mark.parametrize("cores", [1, 2, 3, 5])
@pytest.mark.parametrize("width", [1024, 64])
def test_split_bits_are_the_threshold_matrix(split, width, cores):
    rows = _BLOCK_CELLS // width
    # split blocks are 1/threads of an unsplit one, so most of these row
    # counts end inside a block
    for n in (rows, rows + 1, 2 * rows + 1, 3 * rows + 7, 5 * rows - 3):
        copies = split(cores)
        positions = np.random.default_rng(n).integers(0, width, size=n)
        got = one_hot_rr(positions, width, PROBS, np.random.default_rng(17))
        want = reference_bits(positions, width, PROBS, np.random.default_rng(17))
        assert np.array_equal(got, want), n
        assert len(copies) == expected_threads(n, width, cores), n


@pytest.mark.parametrize("width", [1024, 64])
def test_more_threads_than_rows(split, monkeypatch, width):
    monkeypatch.setattr(base, "_BLOCK_CELLS", width // 4)  # four blocks a row
    for n in (1, 2, 3, 4):
        copies = split(5)
        positions = np.random.default_rng(n).integers(0, width, size=n)
        got = one_hot_rr(positions, width, PROBS, np.random.default_rng(23))
        want = reference_bits(positions, width, PROBS, np.random.default_rng(23))
        assert np.array_equal(got, want), n
        assert len(copies) == min(5, 4 * n) > n


def test_blocks_go_to_whichever_thread_is_free(split, monkeypatch):
    # the calling thread starts late, so the other threads take its blocks
    fill = base._fill
    taken = []  # per block filled: was it on the calling thread

    def late_on_the_calling_thread(bits, positions, claim, *rest):
        calling = threading.current_thread() is threading.main_thread()

        def counted_claim():
            start = claim()
            if start is not None:
                taken.append(calling)
            return start

        if calling:
            time.sleep(0.2)
        fill(bits, positions, counted_claim, *rest)

    monkeypatch.setattr(base, "_fill", late_on_the_calling_thread)
    n, width = 6 * (_BLOCK_CELLS // 1024) + 7, 1024
    copies = split(3)
    positions = np.random.default_rng(3).integers(0, width, size=n)
    got = one_hot_rr(positions, width, PROBS, np.random.default_rng(29))
    want = reference_bits(positions, width, PROBS, np.random.default_rng(29))
    assert np.array_equal(got, want)
    assert len(copies) == 3
    assert taken.count(True) < taken.count(False)
    assert len(taken) == -(-n // (_BLOCK_CELLS // (3 * width)))


@pytest.mark.parametrize("cores", [2, 3, 5])
def test_split_leaves_the_generator_where_one_draw_does(split, cores):
    n, width = 3 * (_BLOCK_CELLS // 1024) + 7, 1024
    copies = split(cores)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    one_hot_rr(np.zeros(n, dtype=np.int64), width, PROBS, rng)
    ref.random((n, width))
    assert copies and rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("cores", [2, 3, 5])
def test_split_keeps_the_buffered_32_bit_half(split, cores):
    n, width = 2 * (_BLOCK_CELLS // 64) + 5, 64
    copies = split(cores)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    for gen in (rng, ref):  # one int32 draw leaves half of a word buffered
        gen.integers(0, 1000, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 1
    one_hot_rr(np.zeros(n, dtype=np.int64), width, PROBS, rng)
    ref.random((n, width))
    assert copies
    assert np.array_equal(
        rng.integers(0, 1 << 30, size=5, dtype=np.int32),
        ref.integers(0, 1 << 30, size=5, dtype=np.int32),
    )


def test_pcg64dxsm_splits(split):
    n, width = 3 * (_BLOCK_CELLS // 1024) + 7, 1024
    copies = split(3)
    positions = np.random.default_rng(1).integers(0, width, size=n)
    rng = np.random.Generator(np.random.PCG64DXSM(4))
    ref = np.random.Generator(np.random.PCG64DXSM(4))
    got = one_hot_rr(positions, width, PROBS, rng)
    assert np.array_equal(got, reference_bits(positions, width, PROBS, ref))
    assert len(copies) == 3
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.SFC64, np.random.Philox]
)
def test_generators_that_cannot_jump_run_unsplit(split, bit_generator):
    n, width = 3 * (_BLOCK_CELLS // 1024) + 7, 1024
    copies = split(3)
    positions = np.random.default_rng(2).integers(0, width, size=n)
    rng = np.random.Generator(bit_generator(6))
    ref = np.random.Generator(bit_generator(6))
    got = one_hot_rr(positions, width, PROBS, rng)
    assert np.array_equal(got, reference_bits(positions, width, PROBS, ref))
    assert copies == []
    assert rng.random() == ref.random()


def test_error_in_a_worker_thread_reaches_the_caller(split):
    n, width = 2 * (_BLOCK_CELLS // 64), 64
    split(2)
    positions = np.zeros(n, dtype=np.int64)
    positions[-1] = width  # out of range, in the last block
    with pytest.raises(IndexError):
        one_hot_rr(positions, width, PROBS, np.random.default_rng(0))


FORK_AFTER_SPLIT = """
import io
import numpy as np
from zoneldp.oracles import base
from zoneldp.simulator import CountsPopulation, ExperimentConfig, run_sweep, write_results

base._cores = lambda: 2
bits = base.one_hot_rr(
    np.zeros(2048, dtype=np.int64), 1024,
    base.PerturbProbabilities(0.6, 0.4), np.random.default_rng(0),
)
config = ExperimentConfig(
    mechanisms=("CMS",), epsilons=(0.5, 2.0), trials=2, seed=3,
    population=CountsPopulation(counts=(400, 300, 200)),
)
rendered = []
for workers in (1, 2):
    buffer = io.StringIO()
    write_results(run_sweep(config, workers=workers), buffer)
    rendered.append(buffer.getvalue())
assert rendered[0] == rendered[1]
print("ok")
"""


def test_forked_sweep_workers_finish_after_a_split():
    # 900 users x a 1024-bit sketch is over three blocks, so every CMS round
    # splits, in this process and in the forked workers
    package_root = str(Path(zoneldp.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = package_root + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-c", FORK_AFTER_SPLIT],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
