"""Shared oracle machinery: the closed-form estimator, probability pairs,
report batches and their checks, the report wire format, and the protocol
hash."""
import dataclasses
import importlib.util
import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import zoneldp.oracles
from wire import payloads, trace_text
from zoneldp.domain import MECHANISMS, PrivacyParams
from zoneldp.errors import DegenerateProbabilities, ParamMismatch
from zoneldp.oracles import (
    FrequencyOracle,
    estimate_frequency,
    make_mechanism,
    read_reports,
    write_reports,
)
from zoneldp.oracles.base import (
    CmsBatch,
    HrBatch,
    OlhBatch,
    OueBatch,
    PerturbProbabilities,
    RapporBatch,
)
from zoneldp.oracles.hashing import (
    family_member_seed,
    hash_bucket,
    hash_bucket_array,
    mix64,
    mix64_array,
)
from zoneldp.simulator import run_round


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
def test_zones_out_of_range_are_rejected(mechanism):
    mech = make_mechanism(mechanism, 6, 1.0)
    for zones in ([-1], [6], [0, 5, 6]):
        with pytest.raises(ValueError, match="out of range"):
            mech.perturb_batch(zones, np.random.default_rng(0))


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_class_defines_its_own_perturb_batch_and_aggregate(mechanism):
    # the traced benchmark run wraps these two methods on the class itself
    # (cls.__dict__), so an inherited one would go untraced or fail
    cls = type(make_mechanism(mechanism, 8, 1.0))
    assert "perturb_batch" in cls.__dict__
    assert "aggregate" in cls.__dict__


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_class_declares_only_what_differs(mechanism):
    # FrequencyOracle holds the one reduce, empty_stats and fit check; a
    # mechanism names its report type once, and the wire's tags follow it
    cls = type(make_mechanism(mechanism, 8, 1.0))
    for klass in cls.__mro__[:cls.__mro__.index(FrequencyOracle)]:
        assert not {"reduce", "empty_stats", "_check_fits"} & set(vars(klass)), klass
    assert cls.batch_type is zoneldp.oracles._BATCHES[cls.name]
    assert list(zoneldp.oracles._BATCHES) == list(MECHANISMS)


# small sketch and bloom shapes, so a hand-written bit row fits them
SMALL = PrivacyParams(cms_k=4, cms_m=4, rappor_k=4, rappor_m=8)


def _small_batch(mechanism):
    mech = make_mechanism(mechanism, 4, 1.0, SMALL)
    return mech, mech.perturb_batch(np.arange(40) % 4, np.random.default_rng(3))


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_batch_fields_are_the_report_fields(mechanism):
    # row fields are n x width and the others 1-d, each of its declared
    # dtype, and perturb_batch -> JSON lines -> read_reports gives back the
    # same arrays
    _, batch = _small_batch(mechanism)
    cls = type(batch)
    names = [f.name for f in dataclasses.fields(cls)]
    assert len(cls.dtypes) == len(names)
    assert set(cls.row_fields) <= set(names)
    for name, dtype in zip(names, cls.dtypes):
        array = getattr(batch, name)
        assert array.dtype == dtype
        assert array.ndim == (2 if name in cls.row_fields else 1)
    assert cls.of(batch) is batch
    again = read_reports(io.StringIO(trace_text(batch)))
    assert type(again) is cls
    assert again.n_reports == batch.n_reports == 40
    for name in names:
        before, after = getattr(batch, name), getattr(again, name)
        assert (after.dtype, after.shape) == (before.dtype, before.shape)
        assert np.array_equal(after, before)


@pytest.mark.parametrize("tag", sorted(zoneldp.oracles._BATCHES))
def test_every_report_field_is_an_integer(tag):
    # the wire carries integers only: a payload's float is refused by
    # ReportBatch.of, so a float field could never be read back
    cls = zoneldp.oracles._BATCHES[tag]
    kinds = {f.name: np.dtype(d).kind for f, d in zip(dataclasses.fields(cls), cls.dtypes)}
    assert all(kind in "iu" for kind in kinds.values()), kinds


MALFORMED = [
    pytest.param("OLH", "value", 0.5, id="OLH-float"),
    pytest.param("OLH", "value", True, id="OLH-bool"),
    pytest.param("OLH", "hash_seed", -1, id="OLH-negative-seed"),
    pytest.param("OLH", "hash_seed", 1 << 64, id="OLH-seed-past-uint64"),
    pytest.param("OUE", "bits", [2, 0, 0, 0], id="OUE-bit-2"),
    pytest.param("OUE", "bits", [True, False, False, False], id="OUE-bools"),
    pytest.param("OUE", "bits", [1, 0, 0], id="OUE-short-row"),
    pytest.param("OUE", "bits", 1, id="OUE-scalar-row"),
    pytest.param("THE", "bits", [0, 2, 0, 0], id="THE-bit-2"),
    pytest.param("THE", "bits", [0, 1.0, 0, 0], id="THE-float-bit"),
    pytest.param("THE", "bits", [math.inf, 0, 0, 0], id="THE-inf"),
    pytest.param("THE", "bits", [math.nan, 0, 0, 0], id="THE-nan"),
    pytest.param("THE", "bits", ["1", 0, 0, 0], id="THE-string"),
    pytest.param("HR", "row_index", 1.7, id="HR-float"),
    pytest.param("HR", "row_index", True, id="HR-bool"),
    pytest.param("HR", "bit", 2, id="HR-bit-2"),
    pytest.param("HR", "bit", 1.0, id="HR-float-bit"),
    pytest.param("CMS", "bits", [2, 0, 0, 0], id="CMS-bit-2"),
    pytest.param("CMS", "hash_index", 1.5, id="CMS-float"),
    pytest.param("CMS", "hash_index", np.int64(1), id="CMS-numpy-int"),
    pytest.param("RAPPOR", "cohort", 2.0, id="RAPPOR-float"),
    pytest.param("RAPPOR", "bits", [0, 0, -1, 0], id="RAPPOR-bit-minus-1"),
    pytest.param("RAPPOR", "bits", [0, 0, 1, 0.0], id="RAPPOR-float-bit"),
]


@pytest.mark.parametrize("mechanism, field, value", MALFORMED)
def test_report_lists_that_do_not_fit_are_rejected(mechanism, field, value):
    # nothing is truncated or wrapped into range on the way in
    mech, batch = _small_batch(mechanism)
    reports = payloads(batch)
    reports[1][field] = value
    with pytest.raises(ParamMismatch, match=field):
        mech.aggregate(reports)
    with pytest.raises(ParamMismatch, match=field):
        type(batch).of(reports)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_reports_of_another_mechanism_are_rejected(mechanism):
    mech, batch = _small_batch(mechanism)
    # the next mechanism of another report type: THE's reports are OUE's
    # bit rows, and a payload does not say which pair drew them
    at = MECHANISMS.index(mechanism)
    other = next(
        m for m in MECHANISMS[at + 1:] + MECHANISMS[:at]
        if type(_small_batch(m)[1]) is not type(batch)
    )
    reports = payloads(batch)
    reports[0] = payloads(_small_batch(other)[1])[0]
    with pytest.raises(ParamMismatch, match=type(batch).__name__):
        mech.aggregate(reports)


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"hash_seed": 1}, r"missing \['value'\], unknown \[\]"),
        ({"hash_seed": 1, "value": 0, "zone": 2}, r"missing \[\], unknown \['zone'\]"),
    ],
)
def test_payload_field_names_are_checked(payload, named):
    # the field check names what is missing and what is unknown
    with pytest.raises(ParamMismatch, match=named):
        OlhBatch.of([{"hash_seed": 2, "value": 1}, payload])


@pytest.mark.parametrize(
    "mechanism, batch, named",
    [
        # a 1-d bit row: one report of 4 bits read as 4 reports
        ("OUE", OueBatch(bits=np.array([1, 0, 0, 0], dtype=np.uint8)), "'bits' has shape"),
        # one value against two seeds would broadcast to two reports
        ("OLH", OlhBatch(hash_seed=np.array([5, 6], dtype=np.uint64),
                         value=np.array([1], dtype=np.int64)), "'value' has shape"),
        # and two values against one seed would count one
        ("OLH", OlhBatch(hash_seed=np.array([5], dtype=np.uint64),
                         value=np.array([1, 2], dtype=np.int64)), "'value' has shape"),
        ("OLH", OlhBatch(hash_seed=np.array([[5]], dtype=np.uint64),
                         value=np.array([1], dtype=np.int64)), "'hash_seed' has shape"),
    ],
)
def test_a_code_built_batch_of_the_wrong_shape_is_rejected(mechanism, batch, named):
    with pytest.raises(ParamMismatch, match=named):
        make_mechanism(mechanism, 4, 1.0).reduce(batch)


def test_an_empty_batch_reduces_from_code_and_from_the_wire():
    mech = make_mechanism("OUE", 4, 1.0)
    empty = OueBatch(bits=np.empty((0, 4), dtype=np.uint8))
    assert mech.reduce(empty).n_reports == mech.reduce([]).n_reports == 0


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
    BATCHES = [
        OlhBatch(
            hash_seed=np.array([123456789, (1 << 64) - 1], dtype=np.uint64),
            value=np.array([3, 0]),
        ),
        OueBatch(bits=np.array([[0, 1, 0, 0], [1, 1, 0, 1]], dtype=np.uint8)),
        OueBatch(bits=np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)),  # THE's
        HrBatch(row_index=np.array([5, 0]), bit=np.array([1, 0], dtype=np.uint8)),
        CmsBatch(
            hash_index=np.array([2, 0]),
            bits=np.array([[1, 0, 1, 1], [0, 0, 0, 0]], dtype=np.uint8),
        ),
        RapporBatch(
            cohort=np.array([7, 1]),
            bits=np.array([[0, 0, 1], [1, 1, 1]], dtype=np.uint8),
        ),
    ]

    def test_dict_round_trip(self):
        # each line is one report's {"mech", "payload"} dict, and the
        # payloads convert back to the batch
        for batch in self.BATCHES:
            lines = [json.loads(line) for line in trace_text(batch).splitlines()]
            assert [set(data) for data in lines] == [{"mech", "payload"}] * 2
            again = type(batch).of([data["payload"] for data in lines])
            for f in dataclasses.fields(batch):
                assert np.array_equal(getattr(again, f.name), getattr(batch, f.name))

    def test_mech_tags(self):
        # each batch type's first mechanism by default; THE's reports are
        # an OueBatch, so the writer's caller names them
        tags = [json.loads(trace_text(b).splitlines()[0])["mech"] for b in self.BATCHES]
        assert tags == ["OLH", "OUE", "OUE", "HR", "CMS", "RAPPOR"]
        named = json.loads(trace_text(self.BATCHES[2], "THE").splitlines()[0])
        assert named["mech"] == "THE"
        for batch, tag in ((self.BATCHES[0], "THE"), (self.BATCHES[2], "HR"), (self.BATCHES[2], "RR")):
            with pytest.raises(ValueError, match=f"does not hold {tag!r}"):
                trace_text(batch, tag)

    def test_stream_round_trip(self):
        for batch in self.BATCHES:
            again = read_reports(io.StringIO(trace_text(batch)))
            assert type(again) is type(batch)
            for f in dataclasses.fields(batch):
                before, after = getattr(batch, f.name), getattr(again, f.name)
                assert after.dtype == before.dtype
                assert np.array_equal(after, before)

    def test_lines_do_not_depend_on_the_block_size(self, monkeypatch):
        batch = make_mechanism("CMS", 5, 1.0, SMALL).perturb_batch(
            np.arange(23) % 5, np.random.default_rng(4)
        )
        whole = trace_text(batch)
        # 5 cells a row: blocks of one row, then of 3 rows with a short last block
        for cells in (1, 15):
            monkeypatch.setattr(zoneldp.oracles, "_BLOCK_CELLS", cells)
            assert trace_text(batch) == whole
        assert len(whole.splitlines()) == 23

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"mech": "RR", "payload": {"value": 1}}, "'RR'"),
            ({"mech": "OLH", "payload": {"hash_seed": 1, "value": 0, "zone": 2}}, "zone"),
            ({"mech": "OLH", "payload": {"hash_seed": 1}}, "value"),
            ({"mech": "HR", "payload": {"row": 1, "bit": 1}}, "row"),
            ({"payload": {"value": 1}}, "line 2: not an object"),
            ({"mech": "OUE"}, "line 2: not an object"),
            ([1, 2], "line 2: not an object"),
            (None, "line 2: not an object"),
            ({"mech": ["OUE"], "payload": {}}, r"line 2: unknown report tag \['OUE'\]"),
        ],
    )
    def test_unknown_tags_and_fields_are_rejected(self, data, named):
        with pytest.raises(ParamMismatch, match=named):
            read_reports(io.StringIO("\n" + json.dumps(data) + "\n"))

    def test_a_trace_holds_one_mechanism(self):
        mixed = trace_text(self.BATCHES[0]) + trace_text(self.BATCHES[1])
        with pytest.raises(ParamMismatch, match="OUE report in a trace of OLH reports"):
            read_reports(io.StringIO(mixed))

    def test_an_empty_trace_reads_as_no_reports(self):
        reports = read_reports(io.StringIO("\n"))
        assert reports == []
        for mechanism in MECHANISMS:
            estimate = make_mechanism(mechanism, 3, 1.0).aggregate(reports)
            assert estimate.n_reports == 0
            assert estimate.raw.tolist() == [0.0] * 3

    def test_the_writer_holds_about_one_block(self):
        # a 50k-user CMS batch at m = 1024 is a 156 MB trace, and one report
        # object per user held 825 MB; the writer converts a block at a
        # time, so its scratch stays near one block (about 8 MB)
        n, m = 50_000, 1024
        rng = np.random.default_rng(6)
        batch = CmsBatch(
            hash_index=rng.integers(0, 128, size=n),
            bits=rng.integers(0, 2, size=(n, m), dtype=np.uint8),
        )

        class Full(Exception):
            pass

        class TwoBlocks:
            """A text handle that keeps nothing and is full after two writes."""

            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 2:
                    raise Full

        tracemalloc.start()
        try:
            with pytest.raises(Full):
                write_reports(batch, TwoBlocks())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_a_chunked_round_writes_what_json_dumps_writes(self, monkeypatch, mechanism):
        # small chunks and blocks, so a round writes several chunks of
        # several blocks each; OLH and HR reports come as one chunk
        monkeypatch.setattr(zoneldp.oracles.base, "_CHUNK_BYTES", 600)
        monkeypatch.setattr(zoneldp.oracles, "_BLOCK_CELLS", 150)
        users = np.random.default_rng(1).integers(0, 30, size=400)
        buffer, chunks = io.StringIO(), []

        def collect(batch):
            chunks.append(batch)
            write_reports(batch, buffer, mechanism)

        run_round(users, 30, mechanism, 1.0, SMALL, np.random.default_rng(2), collect)
        assert len(chunks) >= (1 if mechanism in ("OLH", "HR") else 3)
        expected = []
        for batch in chunks:
            names = [f.name for f in dataclasses.fields(batch)]
            columns = [getattr(batch, name).tolist() for name in names]
            for row in zip(*columns):
                data = {"mech": mechanism, "payload": dict(zip(names, row))}
                expected.append(json.dumps(data) + "\n")
        assert buffer.getvalue() == "".join(expected)

    def test_errors_name_their_line_in_a_later_block(self, monkeypatch):
        # blocks of about 100 characters: the bad line sits many blocks in
        monkeypatch.setattr(zoneldp.oracles, "_BLOCK_CELLS", 100)
        lines = trace_text(self.BATCHES[0]).splitlines(keepends=True) * 30
        for bad, named in [
            ('{"mech": "RR", "payload": {}}\n', "line 48: unknown report tag 'RR'"),
            ("[1]\n", 'line 48: not an object with "mech", "payload"'),
            (trace_text(self.BATCHES[1]), "line 48: OUE report in a trace of OLH"),
        ]:
            with pytest.raises(ParamMismatch, match=named):
                read_reports(io.StringIO("".join(lines[:47] + [bad] + lines[47:])))
        again = read_reports(io.StringIO("".join(lines)))
        assert again.n_reports == 60
        assert np.array_equal(again.value, np.tile(self.BATCHES[0].value, 30))

    def test_rows_of_unequal_width_across_blocks_are_rejected(self, monkeypatch):
        monkeypatch.setattr(zoneldp.oracles, "_BLOCK_CELLS", 100)
        wide = OueBatch(bits=np.ones((40, 5), dtype=np.uint8))
        text = trace_text(wide) + trace_text(OueBatch(bits=np.ones((1, 4), dtype=np.uint8)))
        with pytest.raises(ParamMismatch, match="'bits' holds rows of unequal width"):
            read_reports(io.StringIO(text))

    def test_the_reader_holds_about_one_block_of_payloads(self, tmp_path):
        # 1000 CMS reports at m = 1024: 1 MB of bits, a 3.1 MB trace, and
        # 9.8 MB traced when every parsed payload was held at once
        n, m = 1000, 1024
        rng = np.random.default_rng(7)
        batch = CmsBatch(
            hash_index=rng.integers(0, 128, size=n),
            bits=rng.integers(0, 2, size=(n, m), dtype=np.uint8),
        )
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_reports(batch, fh)
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                again = read_reports(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.bits, batch.bits)
        assert peak < 6 << 20

    def test_payloads_are_plain_json_types(self):
        for batch in self.BATCHES:
            for payload in payloads(batch):
                for value in payload.values():
                    cells = value if isinstance(value, list) else [value]
                    assert {type(c) for c in cells} <= {int, float}


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
        for g in (2, 3, 4, 9, 150, (1 << 31) - 1, 1 << 31):
            values = rng.integers(0, 50, size=200)
            got = hash_bucket_array(seeds, values.astype(np.uint64), g)
            for seed, value, bucket in zip(seeds.tolist(), values.tolist(), got.tolist()):
                assert hash_bucket(seed, value, g) == bucket
            for seed, value in zip(seeds[:5].tolist(), values[:5].tolist()):
                zero_d = hash_bucket_array(np.uint64(seed), np.array(value, np.uint64), g)
                assert type(zero_d) is np.int64
                assert int(zero_d) == hash_bucket(seed, value, g)

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

    EDGES = [0, (1 << 63) - 1, (1 << 64) - 1]

    def test_inputs_are_left_unchanged(self):
        values = np.array(self.EDGES + [5, 6], dtype=np.uint64)
        seeds = np.array(self.EDGES, dtype=np.uint64)
        kept_values, kept_seeds = values.copy(), seeds.copy()
        mix64_array(values)
        hash_bucket_array(seeds[:, None], values[None, :], 11)
        hash_bucket_array(seeds, values[:3], 11)
        assert np.array_equal(values, kept_values)
        assert np.array_equal(seeds, kept_seeds)

    @pytest.mark.filterwarnings("error")
    def test_edge_values_match_the_scalar_forms(self):
        values = np.array(self.EDGES, dtype=np.uint64)
        assert mix64_array(values).tolist() == [mix64(v) for v in self.EDGES]
        table = hash_bucket_array(values[:, None], values[None, :], 13)
        assert table.dtype == np.int64
        assert table.tolist() == [
            [hash_bucket(s, v, 13) for v in self.EDGES] for s in self.EDGES
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", EDGES)
    def test_zero_d_inputs_give_numpy_scalars(self, value):
        for x in (np.uint64(value), np.array(value, dtype=np.uint64)):
            mixed = mix64_array(x)
            assert type(mixed) is np.uint64 and int(mixed) == mix64(value)
            bucket = hash_bucket_array(x, x, 13)
            assert type(bucket) is np.int64
            assert int(bucket) == hash_bucket(value, value, 13)

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
