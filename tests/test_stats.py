"""The oracle contract: reduce to an additive integer statistic, decode it.

Covers the sum property of every mechanism's ``Stats``, the checks on
mismatched statistics, chunked rounds that equal one ``perturb_batch`` and
one ``aggregate`` bit for bit, the memory a chunked round holds, and the
sketch reductions against their plain loop forms.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from zoneldp.domain import MECHANISMS, PrivacyParams
from zoneldp.errors import ParamMismatch
from zoneldp.oracles import make_mechanism
from zoneldp.oracles.base import _CHUNK_BYTES, CmsBatch, RapporBatch, Stats
from zoneldp.simulator import run_round


def _reduced(mechanism, l_zones=20, n=301, seed=5, params=None):
    mech = make_mechanism(mechanism, l_zones, 1.0, params, hash_seed=3)
    zones = np.random.default_rng(seed).integers(0, l_zones, size=n)
    return mech, mech.perturb_batch(zones, np.random.default_rng(seed + 1))


def _rows(batch, rows):
    return type(batch)(*(getattr(batch, f.name)[rows] for f in dataclasses.fields(batch)))


def _assert_same(a: Stats, b: Stats):
    assert (a.mechanism, a.n_reports, a.hash_seed) == (b.mechanism, b.n_reports, b.hash_seed)
    assert a.counts.dtype == b.counts.dtype == np.int64
    assert np.array_equal(a.counts, b.counts)
    if a.row_sizes is None:
        assert b.row_sizes is None
    else:
        assert np.array_equal(a.row_sizes, b.row_sizes)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_the_statistics_of_two_halves_add_up_to_the_whole(mechanism):
    mech, batch = _reduced(mechanism)
    whole = mech.reduce(batch)
    halves = mech.reduce(_rows(batch, slice(None, 140))) + mech.reduce(
        _rows(batch, slice(140, None))
    )
    _assert_same(halves, whole)
    _assert_same(mech.empty_stats() + whole, whole)
    assert whole.n_reports == 301
    # aggregate takes the statistic or the batch alike
    assert np.array_equal(mech.aggregate(halves).raw, mech.aggregate(batch).raw)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_statistics_of_another_mechanism_or_shape_do_not_add(mechanism):
    mech, batch = _reduced(mechanism)
    stats = mech.reduce(batch)
    other = MECHANISMS[(MECHANISMS.index(mechanism) + 1) % len(MECHANISMS)]
    foreign = _reduced(other)[0].empty_stats()
    # another L, and other sketch sizes: CMS's hits have one cell per zone,
    # RAPPOR's bit sums one per (cohort, bit) whatever L is
    resized = _reduced(mechanism, 40, params=PrivacyParams(cms_k=64, rappor_m=512))[0]
    for bad in (foreign, resized.empty_stats()):
        with pytest.raises(ParamMismatch, match="does not fit"):
            stats + bad
        with pytest.raises(ParamMismatch, match="does not fit"):
            mech.aggregate(bad)


@pytest.mark.parametrize("mechanism", ["CMS", "RAPPOR"])
def test_sketch_statistics_of_another_hash_family_do_not_add(mechanism):
    # same mechanism, sizes and L, another family: the sums are of other
    # bits, so decoding them against this table would be silently wrong
    mech, batch = _reduced(mechanism)
    stats = mech.reduce(batch)
    other = make_mechanism(mechanism, 20, 1.0, hash_seed=4)
    assert stats.hash_seed == 3 and other.empty_stats().hash_seed == 4
    foreign = other.reduce(batch)
    assert foreign.counts.shape == stats.counts.shape
    with pytest.raises(ParamMismatch, match="does not fit"):
        stats + foreign
    with pytest.raises(ParamMismatch, match="does not fit"):
        mech.aggregate(foreign)
    assert (stats + mech.reduce(batch)).hash_seed == 3


# each sketch's (rows, width) under its own size names
SKETCH_SIZES = {"CMS": ("cms_k", "cms_m"), "RAPPOR": ("rappor_m", "rappor_k")}


@pytest.mark.parametrize("mechanism", ["CMS", "RAPPOR"])
@pytest.mark.parametrize("resized", [0, 1], ids=["rows", "width"])
def test_sketch_statistics_of_another_sketch_size_do_not_add(mechanism, resized):
    # same mechanism, L and hash seed, half the rows or half the width:
    # CMS's hits then have the same shape, yet are sums of other bits
    mech, batch = _reduced(mechanism)
    stats = mech.reduce(batch)
    name = SKETCH_SIZES[mechanism][resized]
    params = PrivacyParams(**{name: getattr(PrivacyParams(), name) // 2})
    other = make_mechanism(mechanism, 20, 1.0, params, hash_seed=3)
    foreign = other.reduce(other.perturb_batch(np.arange(20), np.random.default_rng(1)))
    assert foreign.hash_seed == stats.hash_seed == 3
    assert foreign.sketch_sizes != stats.sketch_sizes
    if mechanism == "CMS":
        assert foreign.counts.shape == stats.counts.shape == (20,)
    for bad in (foreign, other.empty_stats()):
        with pytest.raises(ParamMismatch, match="does not fit"):
            stats + bad
        with pytest.raises(ParamMismatch, match="does not fit"):
            mech.aggregate(bad)


@pytest.mark.parametrize("mechanism", ["OLH", "OUE", "THE", "HR"])
def test_statistics_without_a_sketch_carry_no_hash_seed(mechanism):
    mech, batch = _reduced(mechanism)
    for stats in (mech.reduce(batch), mech.empty_stats()):
        assert stats.hash_seed is None and stats.sketch_sizes is None


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_each_class_binds_perturb_batch_and_aggregate_itself(mechanism):
    # so one mechanism's pair can be wrapped without touching the others
    cls = type(make_mechanism(mechanism, 4, 1.0))
    assert {"perturb_batch", "aggregate"} <= set(vars(cls))


# (mechanism, l_zones, users, params): each round spans at least 3 chunks
CHUNKED = [
    ("OUE", 1000, 12_600, None),
    ("THE", 200, 64_000, None),
    ("CMS", 8, 12_300, None),
    ("RAPPOR", 8, 12_300, PrivacyParams(rappor_k=1024, rappor_m=16)),
]


@pytest.mark.parametrize("mechanism, l_zones, n, params", CHUNKED)
def test_a_chunked_round_is_one_batch_and_one_aggregate(mechanism, l_zones, n, params):
    users = np.random.default_rng(2).integers(0, l_zones, size=n)
    chunks = []
    est = run_round(users, l_zones, mechanism, 1.0, params,
                    rng=np.random.default_rng(9), collect_reports=chunks.append)
    assert len(chunks) >= 3
    for chunk in chunks:
        assert chunk.bits[:1].nbytes * chunk.n_reports <= _CHUNK_BYTES

    rng = np.random.default_rng(9)
    kwargs = {}
    if mechanism in ("CMS", "RAPPOR"):
        kwargs["hash_seed"] = int(rng.integers(0, 1 << 63))
    mech = make_mechanism(mechanism, l_zones, 1.0, params, **kwargs)
    batch = mech.perturb_batch(users, rng)
    joined = type(batch).concat(chunks)
    for f in dataclasses.fields(batch):
        assert np.array_equal(getattr(joined, f.name), getattr(batch, f.name)), f.name
    assert np.array_equal(est.raw, mech.aggregate(batch).raw)
    assert est.n_reports == n


def test_a_chunked_round_holds_a_few_chunks():
    # one batch of these reports would be 347 MB of bits
    users = np.random.default_rng(0).integers(0, 1733, size=200_000)
    tracemalloc.start()
    try:
        est = run_round(users, 1733, "OUE", 1.0, rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.n_reports == 200_000
    assert peak < 4 * _CHUNK_BYTES


@pytest.mark.parametrize("n", [255, 256, 5000])
def test_cms_reduction_equals_the_mask_loop(n):
    # per-zone hits are the mask loop's row x bit sums read through the
    # hash table. At m = 64, L = 1 and 8 gather each report's target bits
    # first (8 L <= m); L = 9 and 40 sum each row's reports first. Up to
    # 256 all-ones reports in one row: 255 fill uint8 exactly, 256 need
    # uint16, in either order
    rng = np.random.default_rng(n)
    index = rng.integers(0, 16, size=n)
    bits = rng.integers(0, 2, size=(n, 64), dtype=np.uint8)
    index[:256], bits[:256] = 3, 1
    sums = np.zeros((16, 64), dtype=np.int64)
    for row in range(16):
        sums[row] = bits[index == row].sum(axis=0, dtype=np.int64)
    for l_zones in (1, 8, 9, 40):
        mech = make_mechanism(
            "CMS", l_zones, 1.0, PrivacyParams(cms_k=16, cms_m=64), hash_seed=4
        )
        stats = mech.reduce(CmsBatch(hash_index=index, bits=bits))
        expected = sums[np.arange(16)[:, None], mech.targets].sum(axis=0)
        assert stats.counts.dtype == np.int64
        assert stats.counts.tolist() == expected.tolist(), l_zones
        assert (stats.n_reports, stats.row_sizes, stats.sketch_sizes) == (n, None, (16, 64))


def test_rappor_reduction_over_blocks_equals_one_bincount():
    # 20k reports of 64 bits against one flat bincount over all of them
    mech = make_mechanism("RAPPOR", 8, 1.0, hash_seed=4)
    rng = np.random.default_rng(8)
    cohort = rng.integers(0, mech.m, size=20_000)
    bits = rng.integers(0, 2, size=(20_000, mech.k), dtype=np.uint8)
    stats = mech.reduce(RapporBatch(cohort=cohort, bits=bits))
    flat = (cohort[:, None] * mech.k + np.arange(mech.k)).ravel()
    expected = np.bincount(flat, weights=bits.ravel(), minlength=mech.m * mech.k)
    assert np.array_equal(stats.counts, expected.reshape(mech.m, mech.k))


@pytest.mark.parametrize("mechanism", ["CMS", "RAPPOR"])
def test_sketch_rows_given_to_perturb_batch_are_checked(mechanism):
    mech = make_mechanism(mechanism, 4, 1.0)
    zones = np.arange(4)
    rng = np.random.default_rng(0)
    rows = mech.targets.shape[0]
    for bad in ([0, 1, 2], [0, 1, 2, rows], [0, -1, 2, 3]):
        with pytest.raises(ValueError, match="rows"):
            mech.perturb_batch(zones, rng, rows=np.array(bad))
