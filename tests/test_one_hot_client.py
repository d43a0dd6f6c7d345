"""The one-hot randomizer that OUE, THE, CMS and RAPPOR clients share, its
probabilities on the 2^-16 grid, the scalar perturb() that runs a batch of
one, and the block scheduler that also runs OLH's hash replay.

The reference is the direct construction: a threshold matrix holding
ceil(q * 2^16) everywhere and floor(p * 2^16) at each row's target bit,
compared against the 16-bit lanes of one random_raw draw of n *
ceil(width / 4) words (each word's four lanes, low lane first, taken
apart with shifts and masks; a row whose width is not a multiple of four
drops its last word's high lanes). The blocked sampler must give the same
bits for the same seed, at every block boundary, for any number of row
segments it splits the stream into, and must leave the generator where
that one draw leaves it. OLH's support counts must not depend on the core
count.
"""
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Context, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import zoneldp
from zoneldp.errors import DegenerateProbabilities
from zoneldp.oracles import base, make_mechanism
from ldp_enum import LANE, within_exp
from zoneldp.oracles.base import (
    _BLOCK_CELLS,
    _SMALL_BLOCK_CELLS,
    PerturbProbabilities,
    lane_probabilities,
    one_hot_rr,
)
from zoneldp.oracles.cms import CountMeanSketch
from zoneldp.oracles.olh import OptimizedLocalHashing
from zoneldp.oracles.oue import OptimizedUnaryEncoding
from zoneldp.oracles.rappor import Rappor
from zoneldp.oracles.the import ThresholdHistogramEncoding

PROBS = PerturbProbabilities(p=0.62, q=0.38)


def words(width):
    """Raw 64-bit words a row of ``width`` bits reads."""
    return (width + 3) // 4


def reference_lanes(rng, n, width):
    """n x width lanes of one raw draw: row i holds words [i * w, (i + 1) *
    w) for w = ceil(width / 4), each split into its four 16-bit lanes, low
    lane first. MT19937's raw outputs are 32-bit, two to a word, so there
    each output is split into its low and high 16 bits."""
    per_output = 2 if isinstance(rng.bit_generator, np.random.MT19937) else 4
    outputs = 4 // per_output * words(width)
    raw = rng.bit_generator.random_raw(n * outputs).reshape(n, outputs)
    lanes = np.empty((n, 4 * words(width)), dtype=np.uint64)
    for j in range(per_output):
        lanes[:, j::per_output] = (raw >> np.uint64(16 * j)) & np.uint64(LANE - 1)
    return lanes[:, :width]


def reference_bits(positions, width, probs, rng):
    n = positions.size
    thresholds = np.full((n, width), math.ceil(probs.q * LANE), dtype=np.uint64)
    thresholds[np.arange(n), positions] = math.floor(probs.p * LANE)
    return (reference_lanes(rng, n, width) < thresholds).astype(np.uint8)


@pytest.mark.parametrize("width", [1024, 64, 1023, 1022, 1021, 7])
def test_matches_the_threshold_matrix_at_block_edges(width):
    rows = _BLOCK_CELLS // words(width)
    for n in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 7):
        positions = np.random.default_rng(n).integers(0, width, size=n)
        got = one_hot_rr(positions, width, PROBS, np.random.default_rng(31))
        want = reference_bits(positions, width, PROBS, np.random.default_rng(31))
        assert got.dtype == np.uint8 and got.shape == (n, width)
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("width", [1024, 1023, 1022, 1021, 3, 2, 1])
def test_consumes_exactly_n_times_half_the_width_words(width):
    # n rows read n * ceil(width / 4) words, whatever width is modulo 4
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for gen in (rng, ref):  # one int32 draw leaves half of a word buffered
        gen.integers(0, 1000, dtype=np.int32)
    one_hot_rr(np.zeros(700, dtype=np.int64), width, PROBS, rng)
    ref.bit_generator.random_raw(700 * words(width))
    # the buffered half too: the state holds has_uint32 and uinteger
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.integers(0, 1 << 30, dtype=np.int32) == ref.integers(0, 1 << 30, dtype=np.int32)


def closed_form(mechanism, epsilon):
    """(p, q) * 2^16 from the definition, to 80 digits: OUE's (1/2,
    1/(e^eps + 1)), THE's (1 - F(0), 1 - F(1)) = (1/2, e^(-eps/2) / 2) at
    theta = 1, or the sketches' per-bit pair at eps/2."""
    with localcontext(Context(prec=80)):
        if mechanism == "OUE":
            return Decimal(LANE) / 2, LANE / (Decimal(epsilon).exp() + 1)
        if mechanism == "THE":
            return Decimal(LANE) / 2, LANE * (-Decimal(epsilon) / 2).exp() / 2
        half = (Decimal(epsilon) / 2).exp()
        return LANE * half / (half + 1), LANE / (half + 1)


@pytest.mark.parametrize("mechanism", ["OUE", "THE", "CMS", "RAPPOR"])
def test_lane_pairs_keep_the_ratio_bound_in_integers(mechanism):
    for epsilon in np.geomspace(1e-3, 20.0, 97).tolist():
        probs = make_mechanism(mechanism, 4, epsilon).probabilities()
        t_p, t_q = probs.p * LANE, probs.q * LANE
        assert t_p == int(t_p) and t_q == int(t_q), epsilon  # on the grid
        t_p, t_q = int(t_p), int(t_q)
        # the closed form rounded one grid step at most: p down, q up
        p, q = closed_form(mechanism, epsilon)
        assert 0 <= p - t_p < 1 and 0 <= t_q - q < 1, epsilon
        # a zone change moves two bits: the report's ratio is e^eps at most
        assert within_exp(t_p * (LANE - t_q), epsilon, t_q * (LANE - t_p)), epsilon
        if mechanism != "OUE":  # and each sketch or THE bit spends eps/2 at most
            assert within_exp(t_p, epsilon / 2.0, t_q), epsilon
            assert within_exp(LANE - t_q, epsilon / 2.0, LANE - t_p), epsilon


def test_lane_probabilities_round_p_down_and_q_up():
    for p, q in ((0.62, 0.38), (0.5, 0.25), (1.0, 0.0), (0.75, 2.0**-40), (0.9, 2.0**-17)):
        probs = lane_probabilities(PerturbProbabilities(p, q))
        assert probs.p == min(math.floor(p * LANE), LANE - 1) / LANE
        assert probs.q == math.ceil(q * LANE) / LANE
        assert lane_probabilities(probs) == probs  # the grid is fixed


def test_the_grid_is_the_lane_width():
    lanes = base._lanes(np.random.default_rng(0), 3)
    assert lanes.size == 12
    assert base._LANE == LANE == 2 ** (8 * lanes.itemsize)


@pytest.mark.parametrize("mechanism", ["OUE", "THE", "CMS", "RAPPOR"])
def test_the_grid_costs_little_variance(mechanism):
    # q(1 - q)/(p - q)^2, the noise variance per report of a debiased
    # count, on the grid against the closed form, densely over [0.1, 5]
    def variance(p, q):
        return q * (1 - q) / (p - q) ** 2

    for epsilon in np.linspace(0.1, 5.0, 491).tolist():
        probs = make_mechanism(mechanism, 4, epsilon).probabilities()
        p, q = (float(x) / LANE for x in closed_form(mechanism, epsilon))
        ratio = variance(probs.p, probs.q) / variance(p, q)
        assert abs(ratio - 1.0) <= 0.0025, epsilon


@pytest.mark.parametrize("mechanism, smallest", [
    ("OUE", 2.0**-14), ("THE", 2.0**-14), ("CMS", 2.0**-13), ("RAPPOR", 2.0**-13),
])
def test_budgets_the_grid_cannot_split_are_degenerate(mechanism, smallest):
    # OUE's and THE's q are about 1/2 - eps/4 under p = 1/2, the sketches'
    # pair about 1/2 +- eps/8: less than a grid step from 1/2, p rounded
    # down and q rounded up meet
    with pytest.raises(DegenerateProbabilities, match="must exceed"):
        make_mechanism(mechanism, 4, 0.9 * smallest)
    probs = make_mechanism(mechanism, 4, 1.1 * smallest).probabilities()
    assert probs.p - probs.q >= 1.0 / LANE


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_bit_rates_are_the_lane_thresholds(bit_generator):
    # 400k rows of 5 bits: each column's target and other cells, 2M in all,
    # fire at t / 2^16 within 5 standard errors, high and padded lanes too
    probs = lane_probabilities(PerturbProbabilities(0.7, 0.2))
    n, width = 400_000, 5
    positions = np.random.default_rng(3).integers(0, width, size=n)
    bits = one_hot_rr(positions, width, probs, np.random.Generator(bit_generator(8)))
    for column in range(width):
        target = positions == column
        for cells, rate in ((bits[target, column], probs.p), (bits[~target, column], probs.q)):
            stderr = math.sqrt(rate * (1.0 - rate) / cells.size)
            assert abs(cells.mean() - rate) < 5.0 * stderr, (column, rate)


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937]
)
@pytest.mark.parametrize("width", [1024, 1023, 1022, 1021, 3, 2, 1])
def test_every_width_is_the_threshold_matrix_on_every_core_count(
    split, monkeypatch, bit_generator, width
):
    # blocks of 8 rows, so every core count above one splits the 45-row
    # job, except on MT19937, which cannot jump
    monkeypatch.setattr(base, "_BLOCK_CELLS", 8 * words(width))
    n = 45
    positions = np.random.default_rng(width).integers(0, width, size=n)
    for cores in (1, 2, 3, 5):
        copies = split(cores)
        rng = np.random.Generator(bit_generator(7))
        ref = np.random.Generator(bit_generator(7))
        got = one_hot_rr(positions, width, PROBS, rng)
        assert np.array_equal(got, reference_bits(positions, width, PROBS, ref)), cores
        assert rng.random() == ref.random(), cores
        splits = cores > 1 and bit_generator is not np.random.MT19937
        assert len(copies) == (min(cores, 6) if splits else 0), cores


def test_scratch_memory_is_one_bounded_block():
    n, width = 4096, 1024  # 16 MB of raw words if drawn in one piece
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
    # one user's client is a batch of one
    for zone in range(mech.l_zones):
        report = mech.perturb_batch([zone], np.random.default_rng(zone))
        ref = np.random.default_rng(zone)
        row = int(ref.integers(0, rows))
        want = reference_bits(
            np.array([mech.targets[row, zone]]), width, mech.probabilities(), ref
        )
        assert getattr(report, row_field).tolist() == [row]
        assert np.array_equal(report.bits, want)


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
        report = oue.perturb_batch([zone], np.random.default_rng(zone))
        want = reference_bits(
            np.array([zone]), 6, oue.probabilities(), np.random.default_rng(zone)
        )
        assert np.array_equal(report.bits, want)


@pytest.fixture()
def split(monkeypatch):
    """``split(cores)`` makes ``cores`` CPUs visible to the block scheduler
    and returns an empty list that then collects every generator copy the
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


def expected_threads(n, width, cores, cells=_BLOCK_CELLS):
    threads = min(cores, -(-n * width // cells))
    return threads if threads > 1 else 0


@pytest.mark.parametrize("cores", [1, 2, 3, 5])
@pytest.mark.parametrize("width", [1024, 64, 1023, 63])
def test_split_bits_are_the_threshold_matrix(split, width, cores):
    rows = _BLOCK_CELLS // words(width)
    # split blocks are 1/threads of an unsplit one, so most of these row
    # counts end inside a block
    for n in (rows, rows + 1, 2 * rows + 1, 3 * rows + 7, 5 * rows - 3):
        copies = split(cores)
        positions = np.random.default_rng(n).integers(0, width, size=n)
        got = one_hot_rr(positions, width, PROBS, np.random.default_rng(17))
        want = reference_bits(positions, width, PROBS, np.random.default_rng(17))
        assert np.array_equal(got, want), n
        assert len(copies) == expected_threads(n, words(width), cores), n


@pytest.mark.parametrize("width", [1024, 64])
def test_more_threads_than_rows(split, monkeypatch, width):
    monkeypatch.setattr(base, "_BLOCK_CELLS", words(width) // 4)  # four blocks a row
    for n in (1, 2, 3, 4):
        copies = split(5)
        positions = np.random.default_rng(n).integers(0, width, size=n)
        got = one_hot_rr(positions, width, PROBS, np.random.default_rng(23))
        want = reference_bits(positions, width, PROBS, np.random.default_rng(23))
        assert np.array_equal(got, want), n
        assert len(copies) == min(5, 4 * n) > n


def test_blocks_go_to_whichever_thread_is_free(split):
    # the calling thread starts late, so the other threads take its blocks
    n, width = 6 * (_BLOCK_CELLS // 1024) + 7, 1024
    uniforms = np.empty((n, width))
    taken = []  # per block run: was it on the calling thread
    late = threading.Event()

    def fill(start, stop, gen):
        calling = threading.current_thread() is threading.main_thread()
        if calling and not late.is_set():
            late.set()
            time.sleep(0.2)
        taken.append(calling)
        gen.random(out=uniforms[start:stop])

    copies = split(3)
    rng, ref = np.random.default_rng(29), np.random.default_rng(29)
    base.run_blocks(n, width, fill, rng)
    assert np.array_equal(uniforms, ref.random((n, width)))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert len(copies) == 3
    assert taken.count(True) < taken.count(False)
    assert len(taken) == -(-n // (_BLOCK_CELLS // (3 * width)))


@pytest.mark.parametrize("cores", [2, 3, 5])
def test_split_leaves_the_generator_where_one_draw_does(split, cores):
    width = 1024
    n = 3 * (_BLOCK_CELLS // words(width)) + 7
    copies = split(cores)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    one_hot_rr(np.zeros(n, dtype=np.int64), width, PROBS, rng)
    ref.bit_generator.random_raw(n * words(width))
    assert copies and rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("cores", [2, 3, 5])
def test_split_keeps_the_buffered_32_bit_half(split, cores):
    width = 64
    n = 2 * (_BLOCK_CELLS // words(width)) + 5
    copies = split(cores)
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    for gen in (rng, ref):  # one int32 draw leaves half of a word buffered
        gen.integers(0, 1000, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"] == 1
    one_hot_rr(np.zeros(n, dtype=np.int64), width, PROBS, rng)
    ref.bit_generator.random_raw(n * words(width))
    assert copies
    assert np.array_equal(
        rng.integers(0, 1 << 30, size=5, dtype=np.int32),
        ref.integers(0, 1 << 30, size=5, dtype=np.int32),
    )


def test_pcg64dxsm_splits(split):
    width = 1024
    n = 3 * (_BLOCK_CELLS // words(width)) + 7
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
    width = 1024
    n = 3 * (_BLOCK_CELLS // words(width)) + 7
    copies = split(3)
    positions = np.random.default_rng(2).integers(0, width, size=n)
    rng = np.random.Generator(bit_generator(6))
    ref = np.random.Generator(bit_generator(6))
    got = one_hot_rr(positions, width, PROBS, rng)
    assert np.array_equal(got, reference_bits(positions, width, PROBS, ref))
    assert copies == []
    assert rng.random() == ref.random()


def test_error_in_a_worker_thread_reaches_the_caller(split):
    width = 64
    n = 2 * (_BLOCK_CELLS // words(width))
    split(2)
    positions = np.zeros(n, dtype=np.int64)
    positions[-1] = width  # out of range, in the last block
    with pytest.raises(IndexError):
        one_hot_rr(positions, width, PROBS, np.random.default_rng(0))


def test_error_in_a_worker_thread_reaches_the_caller_of_any_job(split):
    split(2)

    def block(start, stop, gen):
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.05)  # leaves blocks for the worker thread
        else:
            raise RuntimeError("raised in a worker")

    with pytest.raises(RuntimeError, match="raised in a worker"):
        base.run_blocks(8, _BLOCK_CELLS // 2, block)


VENUE_L = 373  # zones of the benchmark venue


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937]
)
def test_the_bits_are_the_threshold_matrix_on_every_core_count(
    split, monkeypatch, bit_generator
):
    # THE's client is one_hot_rr with its lane pair: blocks of 8 rows, so
    # every core count above one splits the 45-row job, except on MT19937,
    # which cannot jump; the batch of one is the first reference row
    the = ThresholdHistogramEncoding(VENUE_L, 1.0, theta=0.75)
    monkeypatch.setattr(base, "_BLOCK_CELLS", 8 * words(VENUE_L))
    zones = np.random.default_rng(6).integers(0, VENUE_L, size=45)
    for cores in (1, 2, 3, 5):
        for n in (1, 45):
            copies = split(cores)
            rng = np.random.Generator(bit_generator(7))
            ref = np.random.Generator(bit_generator(7))
            got = the.perturb_batch(zones[:n], rng).bits
            want = reference_bits(zones[:n], VENUE_L, the.probabilities(), ref)
            assert np.array_equal(got, want), (cores, n)
            assert rng.random() == ref.random(), (cores, n)
            splits = n > 8 and cores > 1 and bit_generator is not np.random.MT19937
            assert len(copies) == (min(cores, 6) if splits else 0), (cores, n)


def test_olh_support_counts_are_the_same_on_every_core_count(split, monkeypatch):
    mech = OptimizedLocalHashing(VENUE_L, 1.0)
    pool = base._thread_pool
    started = []  # pool threads per call beside the calling one

    def recording(threads):
        started.append(threads)
        return pool(threads)

    monkeypatch.setattr(base, "_thread_pool", recording)
    rows = _SMALL_BLOCK_CELLS // VENUE_L
    for n in (rows - 1, rows + 1, 3 * rows + 7, 11 * rows):
        rng = np.random.default_rng(n)
        batch = mech.perturb_batch(rng.integers(0, VENUE_L, size=n), rng)
        raws = []
        for cores in (1, 2, 3, 5):
            split(cores)
            started.clear()
            raws.append(mech.aggregate(batch).raw)
            threads = expected_threads(n, VENUE_L, cores, _SMALL_BLOCK_CELLS)
            assert started == ([threads - 1] if threads else []), (n, cores)
        assert all(np.array_equal(raw, raws[0]) for raw in raws), n


FORK_AFTER_SPLIT = """
import io
import numpy as np
from zoneldp.oracles import base
from zoneldp.simulator import CountsPopulation, ExperimentConfig, run_sweep, write_results

base._cores = lambda: 2
bits = base.one_hot_rr(
    np.zeros(4096, dtype=np.int64), 1024,
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
# 3700 users over 700 zones: THE's bits and OLH's replay split too
config = ExperimentConfig(
    mechanisms=("THE", "OLH"), epsilons=(0.5, 2.0), trials=2, seed=3,
    population=CountsPopulation(counts=(5,) * 500 + (6,) * 200),
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
    # 4096 rows of 1024 bits are two blocks of raw words, so the process
    # has split a job before its first sweep forks; 3700 THE users over 700
    # zones read 175 words a row, over one block, and their OLH replay is
    # over one block of its own, so those rounds split, in this process and
    # in the forked workers
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
