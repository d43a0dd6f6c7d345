"""Shared oracle machinery: the closed-form estimator, probability pairs,
the scalar perturb, report batches and their checks, report wire format,
and the protocol hash."""
import dataclasses
import importlib.util
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from zoneldp.domain import MECHANISMS, PrivacyParams
from zoneldp.errors import DegenerateProbabilities, ParamMismatch
from zoneldp.oracles import (
    estimate_frequency,
    make_mechanism,
    report_from_dict,
    report_to_dict,
)
from zoneldp.oracles import read_reports, write_reports
from zoneldp.oracles.base import (
    CmsReport,
    HrReport,
    OlhReport,
    OueReport,
    PerturbProbabilities,
    RapporReport,
    TheReport,
)
from zoneldp.oracles.hashing import (
    family_member_seed,
    hash_bucket,
    hash_bucket_array,
    mix64,
    mix64_array,
)


class TestPerturbProbabilities:
    def test_valid_pair(self):
        probs = PerturbProbabilities(p=0.75, q=0.25)
        assert (probs.p, probs.q) == (0.75, 0.25)

    def test_p_must_exceed_q(self):
        with pytest.raises(DegenerateProbabilities):
            PerturbProbabilities(p=0.3, q=0.3)
        with pytest.raises(DegenerateProbabilities):
            PerturbProbabilities(p=0.2, q=0.4)

    def test_bounds(self):
        with pytest.raises(DegenerateProbabilities):
            PerturbProbabilities(p=1.2, q=0.1)
        with pytest.raises(DegenerateProbabilities):
            PerturbProbabilities(p=0.5, q=-0.1)
        with pytest.raises(DegenerateProbabilities):
            PerturbProbabilities(p=0.0, q=0.0)


class TestEstimateFrequency:
    def test_closed_form_on_exact_binary_fractions(self):
        # n*q = 12 and p - q = 1/2 are exact in binary, so the expected
        # raw values (36, -4, -14) are exact too
        probs = PerturbProbabilities(p=0.75, q=0.25)
        est = estimate_frequency(np.array([30, 10, 5]), 48, probs)
        assert est.raw.tolist() == [36.0, -4.0, -14.0]
        assert est.clamped.tolist() == [36.0, 0.0, 0.0]
        assert est.n_reports == 48

    def test_identity_when_noiseless(self):
        probs = PerturbProbabilities(p=1.0, q=0.0)
        counts = np.array([5, 0, 3])
        est = estimate_frequency(counts, 8, probs)
        assert np.array_equal(est.raw, counts.astype(float))

    def test_zero_when_counts_sit_at_noise_floor(self):
        probs = PerturbProbabilities(p=0.75, q=0.25)
        est = estimate_frequency(np.array([12, 12]), 48, probs)
        assert est.raw.tolist() == [0.0, 0.0]

    def test_single_zone_full_support(self):
        probs = PerturbProbabilities(p=0.75, q=0.25)
        est = estimate_frequency(np.array([75]), 100, probs)
        assert est.raw.tolist() == [100.0]

    def test_rejects_counts_outside_report_range(self):
        probs = PerturbProbabilities(p=0.75, q=0.25)
        with pytest.raises(ValueError):
            estimate_frequency(np.array([10]), 5, probs)
        with pytest.raises(ValueError):
            estimate_frequency(np.array([-1]), 5, probs)
        with pytest.raises(ValueError):
            estimate_frequency(np.array([1]), -1, probs)
        with pytest.raises(ValueError):
            estimate_frequency(np.array([]), 0, probs)


def probabilities(mechanism, epsilon, params=None):
    return make_mechanism(mechanism, 4, epsilon, params).probabilities()


class TestProbabilitiesFor:
    def test_known_pairs_at_ln3(self):
        epsilon = math.log(3.0)
        oue = probabilities("OUE", epsilon)
        assert (oue.p, oue.q) == pytest.approx((0.5, 0.25), rel=1e-12)
        olh = probabilities("OLH", epsilon)  # g = 4 here
        assert (olh.p, olh.q) == pytest.approx((0.5, 0.25), rel=1e-12)
        hr = probabilities("HR", epsilon)
        assert (hr.p, hr.q) == pytest.approx((0.75, 0.25), rel=1e-12)

    def test_theta_reaches_the_histogram_pair(self):
        params = PrivacyParams(the_theta=0.5)
        with_theta = probabilities("THE", 2.0, params)
        default = probabilities("THE", 2.0)
        assert with_theta.q > default.q  # lower threshold admits more noise

    def test_sketch_and_cohort_mechanisms_share_the_per_bit_pair(self):
        # both randomize single bits at budget eps/2
        for epsilon in (0.5, 1.0, 2.0):
            cms = probabilities("CMS", epsilon)
            rappor = probabilities("RAPPOR", epsilon)
            assert cms.p == pytest.approx(rappor.p, rel=1e-15)
            assert cms.q == pytest.approx(rappor.q, rel=1e-15)

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            probabilities("RR", 1.0)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_scalar_perturb_is_a_batch_of_one(mechanism):
    mech = make_mechanism(mechanism, 6, 1.0)
    for seed in range(3):
        # each side keeps its generator across calls, so the draws each
        # call consumes must match as well as the reports
        scalar_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for zone in range(6):
            single = mech.perturb(zone, scalar_rng)
            assert single == mech.perturb_batch([zone], batch_rng).reports()[0]
    for zone in (-1, 6):
        with pytest.raises(ValueError):
            mech.perturb(zone, np.random.default_rng(0))


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_class_defines_its_own_perturb_batch_and_aggregate(mechanism):
    # the traced benchmark run wraps these two methods on the class itself
    # (cls.__dict__), so an inherited one would go untraced or fail
    cls = type(make_mechanism(mechanism, 8, 1.0))
    assert "perturb_batch" in cls.__dict__
    assert "aggregate" in cls.__dict__


# small sketch and bloom shapes, so a hand-written bit row fits them
SMALL = PrivacyParams(cms_k=4, cms_m=4, rappor_k=4, rappor_m=8)


def _small_batch(mechanism):
    mech = make_mechanism(mechanism, 4, 1.0, SMALL)
    return mech, mech.perturb_batch(np.arange(40) % 4, np.random.default_rng(3))


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_batch_fields_are_the_report_fields(mechanism):
    # field names and order carry over, and perturb_batch -> reports ->
    # JSON lines -> of gives back the same arrays
    _, batch = _small_batch(mechanism)
    cls = type(batch)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == [f.name for f in dataclasses.fields(cls.report_type)]
    assert len(cls.dtypes) == len(names)
    assert cls.of(batch) is batch
    buffer = io.StringIO()
    write_reports(batch.reports(), buffer)
    buffer.seek(0)
    again = cls.of(list(read_reports(buffer)))
    assert again.n_reports == batch.n_reports == 40
    for name in names:
        before, after = getattr(batch, name), getattr(again, name)
        assert (after.dtype, after.shape) == (before.dtype, before.shape)
        assert np.array_equal(after, before)


MALFORMED = [
    pytest.param("OLH", "value", 0.5, id="OLH-float"),
    pytest.param("OLH", "value", True, id="OLH-bool"),
    pytest.param("OLH", "hash_seed", -1, id="OLH-negative-seed"),
    pytest.param("OLH", "hash_seed", 1 << 64, id="OLH-seed-past-uint64"),
    pytest.param("OUE", "bits", (2, 0, 0, 0), id="OUE-bit-2"),
    pytest.param("OUE", "bits", (True, False, False, False), id="OUE-bools"),
    pytest.param("OUE", "bits", (1, 0, 0), id="OUE-short-row"),
    pytest.param("OUE", "bits", 1, id="OUE-scalar-row"),
    pytest.param("THE", "values", (math.inf, 0.0, 0.0, 0.0), id="THE-inf"),
    pytest.param("THE", "values", (math.nan, 0.0, 0.0, 0.0), id="THE-nan"),
    pytest.param("THE", "values", ("1.5", 0.0, 0.0, 0.0), id="THE-string"),
    pytest.param("HR", "row_index", 1.7, id="HR-float"),
    pytest.param("HR", "row_index", True, id="HR-bool"),
    pytest.param("HR", "signed_value", math.inf, id="HR-inf"),
    pytest.param("CMS", "bits", (2, 0, 0, 0), id="CMS-bit-2"),
    pytest.param("CMS", "hash_index", 1.5, id="CMS-float"),
    pytest.param("CMS", "hash_index", np.int64(1), id="CMS-numpy-int"),
    pytest.param("RAPPOR", "cohort", 2.0, id="RAPPOR-float"),
    pytest.param("RAPPOR", "bits", (0, 0, -1, 0), id="RAPPOR-bit-minus-1"),
    pytest.param("RAPPOR", "bits", (0, 0, 1, 0.0), id="RAPPOR-float-bit"),
]


@pytest.mark.parametrize("mechanism, field, value", MALFORMED)
def test_report_lists_that_do_not_fit_are_rejected(mechanism, field, value):
    # nothing is truncated or wrapped into range on the way in
    mech, batch = _small_batch(mechanism)
    reports = batch.reports()
    reports[1] = dataclasses.replace(reports[1], **{field: value})
    with pytest.raises(ParamMismatch, match=field):
        mech.aggregate(reports)
    with pytest.raises(ParamMismatch, match=field):
        type(batch).of(reports)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_reports_of_another_mechanism_are_rejected(mechanism):
    mech, batch = _small_batch(mechanism)
    other = MECHANISMS[(MECHANISMS.index(mechanism) + 1) % len(MECHANISMS)]
    reports = batch.reports()
    reports[0] = _small_batch(other)[1].reports()[0]
    with pytest.raises(ParamMismatch, match=type(batch).__name__):
        mech.aggregate(reports)


def _benchmark_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_traced_report_bytes_are_the_field_arrays(mechanism):
    # the traced run counts oracles.<mech>.report_bytes with batch_nbytes
    _, batch = _small_batch(mechanism)
    arrays = [getattr(batch, f.name) for f in dataclasses.fields(batch)]
    expected = sum(a.nbytes for a in arrays)
    assert expected > 0
    assert _benchmark_tracing().batch_nbytes(batch) == expected


class TestWireFormat:
    REPORTS = [
        OlhReport(hash_seed=123456789, value=3),
        OueReport(bits=(0, 1, 0, 0)),
        TheReport(values=(0.25, -1.5, 1.75)),
        HrReport(row_index=5, signed_value=-1.5),
        CmsReport(hash_index=2, bits=(1, 0, 1, 1)),
        RapporReport(cohort=7, bits=(0, 0, 1)),
    ]

    def test_dict_round_trip(self):
        for report in self.REPORTS:
            data = report_to_dict(report)
            assert set(data) == {"mech", "payload"}
            assert report_from_dict(data) == report

    def test_mech_tags(self):
        tags = [report_to_dict(r)["mech"] for r in self.REPORTS]
        assert tags == ["OLH", "OUE", "THE", "HR", "CMS", "RAPPOR"]

    def test_stream_round_trip(self):
        buffer = io.StringIO()
        write_reports(self.REPORTS, buffer)
        buffer.seek(0)
        assert list(read_reports(buffer)) == self.REPORTS

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"mech": "RR", "payload": {"value": 1}}, "'RR'"),
            ({"mech": "OLH", "payload": {"hash_seed": 1, "value": 0, "zone": 2}}, "zone"),
            ({"mech": "OLH", "payload": {"hash_seed": 1}}, "value"),
            ({"mech": "HR", "payload": {"row": 1, "signed_value": 1.0}}, "row"),
        ],
    )
    def test_unknown_tags_and_fields_are_rejected(self, data, named):
        with pytest.raises(ParamMismatch, match=named):
            report_from_dict(data)

    def test_payloads_are_plain_json_types(self):
        import json

        for report in self.REPORTS:
            json.dumps(report_to_dict(report))  # must not raise


class TestProtocolHash:
    def test_scalar_and_vector_mix_agree_exactly(self):
        rng = np.random.default_rng(59)
        values = rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
        values[:3] = [0, 1, (1 << 64) - 1]
        mixed = mix64_array(values)
        for value, expect in zip(values.tolist(), mixed.tolist()):
            assert mix64(value) == expect

    def test_scalar_and_vector_buckets_agree(self):
        rng = np.random.default_rng(61)
        seeds = rng.integers(0, 1 << 63, size=200, dtype=np.uint64)
        for g in (2, 3, 9, 150):
            values = rng.integers(0, 50, size=200)
            got = hash_bucket_array(seeds, values.astype(np.uint64), g)
            for seed, value, bucket in zip(seeds.tolist(), values.tolist(), got.tolist()):
                assert hash_bucket(seed, value, g) == bucket

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "seeds, values",
        [
            (5, np.array([0, 1, 2, 3], dtype=np.uint64)),
            (np.array([1, 2, (1 << 63) - 1], dtype=np.uint64), 7),
            ((1 << 63) - 1, 7),
        ],
        ids=["scalar-seed", "scalar-value", "both-scalar"],
    )
    def test_scalar_operands_wrap_without_warning(self, seeds, values):
        got = hash_bucket_array(seeds, values, 9)
        pairs = np.broadcast(seeds, values)
        assert got.shape == pairs.shape
        assert got.ravel().tolist() == [hash_bucket(s, v, 9) for s, v in pairs]

    def test_broadcasting_tabulates_the_family(self):
        seeds = np.array([11, 22, 33], dtype=np.uint64)
        values = np.arange(5, dtype=np.uint64)
        table = hash_bucket_array(seeds[:, None], values[None, :], 7)
        assert table.shape == (3, 5)
        assert table[1, 4] == hash_bucket(22, 4, 7)

    def test_buckets_land_in_range_and_spread(self):
        rng = np.random.default_rng(67)
        seeds = rng.integers(0, 1 << 63, size=20_000, dtype=np.uint64)
        buckets = hash_bucket_array(seeds, np.zeros(20_000, dtype=np.uint64), 8)
        assert buckets.min() >= 0 and buckets.max() < 8
        counts = np.bincount(buckets, minlength=8)
        expected = 20_000 / 8
        sigma = math.sqrt(20_000 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expected) <= 5.0 * sigma)

    def test_family_member_seeds_are_distinct(self):
        seeds = {family_member_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_family_members_differ_across_bases(self):
        assert family_member_seed(1, 0) != family_member_seed(2, 0)

    @pytest.mark.parametrize("base", [0, 42, (1 << 63) - 1])
    def test_array_family_seeds_match_the_scalar_form(self, base):
        indices = np.arange(1024)
        seeds = family_member_seed(base, indices)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [family_member_seed(base, int(i)) for i in indices]
        assert isinstance(family_member_seed(base, 3), int)
