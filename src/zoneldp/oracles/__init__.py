"""Six local-differential-privacy frequency oracles behind one contract.

Each mechanism is a client randomizer, an additive statistic and a
decoder: clients perturb zone indices into a report batch, one report per
row; the aggregator reduces batches to an integer ``Stats``, adds them and
decodes the sum into debiased per-zone counts. A report trace is that
batch as JSON lines.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import fields
from typing import Optional

import numpy as np

from ..domain import MECHANISMS, PrivacyParams
from ..errors import ParamMismatch
from .base import (
    _BLOCK_CELLS,
    FrequencyOracle,
    PerturbProbabilities,
    ReportBatch,
    estimate_frequency,
)
from .cms import CountMeanSketch
from .hr import HadamardResponse
from .olh import OptimizedLocalHashing
from .oue import OptimizedUnaryEncoding
from .rappor import Rappor
from .the import ThresholdHistogramEncoding

__all__ = [
    "CountMeanSketch",
    "FrequencyOracle",
    "HadamardResponse",
    "OptimizedLocalHashing",
    "OptimizedUnaryEncoding",
    "PerturbProbabilities",
    "Rappor",
    "ThresholdHistogramEncoding",
    "estimate_frequency",
    "make_mechanism",
    "read_reports",
    "write_reports",
]


def make_mechanism(
    mechanism: str,
    l_zones: int,
    epsilon: float,
    params: Optional[PrivacyParams] = None,
    *,
    hash_seed: int = 0,
) -> FrequencyOracle:
    """Instantiate one mechanism; ``params`` supplies sizes and threshold
    (the defaults when None), so one params value serves a whole sweep grid.
    ``hash_seed`` roots the hash family of the two sketches, CMS and RAPPOR.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}; expected one of {MECHANISMS}")
    if params is None:
        params = PrivacyParams()
    if mechanism == "OLH":
        return OptimizedLocalHashing(l_zones, epsilon)
    if mechanism == "OUE":
        return OptimizedUnaryEncoding(l_zones, epsilon)
    if mechanism == "THE":
        return ThresholdHistogramEncoding(l_zones, epsilon, theta=params.the_theta)
    if mechanism == "HR":
        return HadamardResponse(l_zones, epsilon)
    if mechanism == "CMS":
        return CountMeanSketch(
            l_zones, epsilon, k=params.cms_k, m=params.cms_m, hash_seed=hash_seed
        )
    return Rappor(
        l_zones, epsilon, k=params.rappor_k, m=params.rappor_m, hash_seed=hash_seed
    )


# --- wire format ----------------------------------------------------------
# One report per JSON line: {"mech": "...", "payload": {field: value, ...}}

# each mechanism's report type, in MECHANISMS order; THE's reports are
# OUE's bit rows under another (p, q) pair
_BATCHES = {
    cls.name: cls.batch_type
    for cls in (
        OptimizedLocalHashing, OptimizedUnaryEncoding, ThresholdHistogramEncoding,
        HadamardResponse, CountMeanSketch, Rappor,
    )
}

# each batch type's default tag, its first mechanism: OUE for OueBatch
_TAGS = {cls: tag for tag, cls in reversed(_BATCHES.items())}


def _field_texts(prefix: str, column: np.ndarray, suffix: str) -> list:
    """Each row's value of one field as ``json.dumps`` writes it, between
    ``prefix`` and ``suffix``. Rows of bits are formatted in one byte array."""
    if column.dtype != np.uint8 or column.ndim != 2 or not column.shape[1]:
        return [prefix + json.dumps(value) + suffix for value in column.tolist()]
    # prefix, "[", then a digit and ", " per bit with the last ", " cut, "]", suffix
    head, tail = (prefix + "[").encode(), ("]" + suffix).encode()
    n, width = column.shape
    size = len(head) + 3 * width - 2 + len(tail)
    text = np.empty((n, size), dtype=np.uint8)
    text[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    bits = text[:, len(head):size - len(tail)]
    np.add(column, ord("0"), out=bits[:, 0::3])
    bits[:, 1::3] = ord(",")
    bits[:, 2::3] = ord(" ")
    text[:, size - len(tail):] = np.frombuffer(tail, dtype=np.uint8)
    rows = text.tobytes().decode("ascii")
    return [rows[start:start + size] for start in range(0, len(rows), size)]


def write_reports(batch: ReportBatch, fh, mechanism: Optional[str] = None) -> None:
    """Write a batch to an open text handle, one report per JSON line, as
    ``json.dumps({"mech": mechanism, "payload": {field: value, ...}})``
    writes it.

    ``mechanism`` is the tag, by default the first mechanism whose reports
    the batch type holds: a THE batch is an ``OueBatch``, so its trace
    needs ``mechanism="THE"``. ValueError for a tag of another batch type.
    Rows are formatted a block of ``_BLOCK_CELLS`` cells at a time, so the
    scratch memory stays near one block for any batch size.
    """
    tag = _TAGS[type(batch)] if mechanism is None else mechanism
    if _BATCHES.get(tag) is not type(batch):
        raise ValueError(f"{type(batch).__name__} does not hold {tag!r} reports")
    names = [f.name for f in fields(batch)]
    columns = [getattr(batch, name) for name in names]
    # the text before each field's value, and after the last one's
    head = '{"mech": ' + json.dumps(tag) + ', "payload": {'
    keys = [json.dumps(name) + ": " for name in names]
    prefixes = [head + keys[0]] + [", " + key for key in keys[1:]]
    suffixes = [""] * (len(names) - 1) + ["}}\n"]
    width = sum(column[:1].size for column in columns)
    step = max(1, _BLOCK_CELLS // max(width, 1))
    for start in range(0, batch.n_reports, step):
        texts = [
            _field_texts(prefix, column[start:start + step], suffix)
            for prefix, column, suffix in zip(prefixes, columns, suffixes)
        ]
        fh.write("".join(itertools.chain.from_iterable(zip(*texts))))


def read_reports(fh):
    """The batch a JSON-lines trace holds, checked by its type's ``of``.

    Lines are converted a block of about ``_BLOCK_CELLS`` characters at a
    time, so no more than one block of parsed payloads is held.
    ParamMismatch, naming the line, for a line that is not an object with
    a known ``mech`` tag and a ``payload``, or that holds another mechanism
    than the first; ParamMismatch for a payload that does not fit. An empty
    trace reads as an empty list, which every ``aggregate`` takes as no
    reports.
    """
    trace_tag, payloads, chars, blocks = None, [], 0, []
    for number, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        data = json.loads(line)
        if not (isinstance(data, dict) and {"mech", "payload"} <= data.keys()):
            raise ParamMismatch(f'line {number}: not an object with "mech", "payload"')
        tag = data["mech"]
        if not isinstance(tag, str) or tag not in _BATCHES:
            raise ParamMismatch(
                f"line {number}: unknown report tag {tag!r}; expected {MECHANISMS}"
            )
        if trace_tag not in (None, tag):
            raise ParamMismatch(
                f"line {number}: {tag} report in a trace of {trace_tag} reports"
            )
        trace_tag, batch_type = tag, _BATCHES[tag]
        payloads.append(data["payload"])
        chars += len(line)
        if chars >= _BLOCK_CELLS:
            blocks.append(batch_type.of(payloads))
            payloads, chars = [], 0
    if trace_tag is None:
        return []
    if payloads:
        blocks.append(batch_type.of(payloads))
    return batch_type.concat(blocks)
