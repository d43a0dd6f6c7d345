"""Shared oracle machinery: probability pairs, report types, the debiased
frequency estimator, the mechanism base class and the hashed sketch.

Every mechanism is a perturb/aggregate pair. Perturbation runs client-side
on a single zone index; aggregation reduces many reports to per-zone count
estimates. Each mechanism is defined by its (p, q) pair, which the base
class returns from ``probabilities()``. The three mechanisms that report a
randomized one-hot bit row (OUE over the L zones, CMS and RAPPOR over a
hashed row) share one client randomizer, ``one_hot_rr``, which fills large
batches on several threads from jump-ahead copies of the caller's PCG64
generator without changing a bit of the output. CMS and RAPPOR are one
``HashedSketch``: the same hash table, client and debiased per-(row, bit)
sums under their own size names, each with its own decoder. Aggregators
reduce reports to integer sufficient statistics before doing float
arithmetic, so the estimate is invariant under any permutation of the
reports.

Each mechanism's reports travel between perturb_batch and aggregate as a
``ReportBatch``: one array per report field, under the report's own field
names. ``ReportBatch.of`` is the single place where report lists from
outside enter an aggregator, so it is also where they are checked.
"""
from __future__ import annotations

import abc
import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import ClassVar, Union, get_type_hints

import numpy as np

from ..domain import FrequencyEstimate
from ..errors import DegenerateProbabilities, ParamMismatch
from .hashing import family_member_seed, hash_bucket_array


@dataclass(frozen=True)
class PerturbProbabilities:
    """Per-value report probabilities: p for the true value, q for others.

    The debiasing step divides by p - q, so p > q is required.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0) or not (0.0 <= self.q < 1.0):
            raise DegenerateProbabilities(f"p={self.p}, q={self.q} out of range")
        if not self.p > self.q:
            raise DegenerateProbabilities(f"p={self.p} must exceed q={self.q}")


# cells per block of the blocked loops (one_hot_rr's uniforms, OLH's hash
# replay): bounds each scratch array at 4 MB of 8-byte cells (512 rows at
# width 1024, 8192 rows at width 64)
_BLOCK_CELLS = 1 << 19


def _cores() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def one_hot_rr(
    positions, width: int, probs: PerturbProbabilities, rng: np.random.Generator
) -> np.ndarray:
    """Per-bit randomized response on one-hot rows; returns n x width uint8.

    Row i has a 1 at ``positions[i]`` before randomization: that bit is
    reported as 1 with probability p and every other bit with probability
    q. Each bit is one uniform compared against its threshold, and the
    uniforms are the row-major stream of a single ``rng.random((n, width))``
    call, which leaves ``rng`` where that call would.

    Memory stays bounded for any n: rows are filled in blocks, each
    thread drawing into one reused buffer, ``_BLOCK_CELLS`` cells over all
    threads. When ``rng`` is a PCG64 or PCG64DXSM generator and there is
    more than one block of work, one thread per available core (at most
    one per block) fills blocks: the calling thread and threads started
    and joined within the call. Each holds a copy of ``rng`` and jumps it
    ahead to the first cell of every block it takes, so it reads that
    block's part of the same stream. A thread takes the next unfilled
    block when it is free, so a core that runs slowly fills fewer blocks.
    Other bit generators cannot skip ahead exactly and fill every block
    in order on ``rng`` itself.
    """
    positions = np.asarray(positions, dtype=np.int64)
    n = positions.size
    bits = np.empty((n, width), dtype=np.uint8)
    threads = 1
    # only these bit generators' advance(k) skips exactly the k 64-bit words
    # that k doubles from Generator.random consume
    jumpable = type(rng.bit_generator) in (np.random.PCG64, np.random.PCG64DXSM)
    if jumpable and n * width > _BLOCK_CELLS:
        threads = min(_cores(), -(-n * width // _BLOCK_CELLS))
    block_rows = max(1, _BLOCK_CELLS // (threads * width))
    starts, lock = iter(range(0, n, block_rows)), threading.Lock()

    def claim():
        """First row of the next unfilled block, None when all are taken."""
        with lock:
            return next(starts, None)

    fill = functools.partial(_fill, bits, positions, claim, block_rows, probs)
    if threads == 1:
        fill(rng)
        return bits
    with ThreadPoolExecutor(threads - 1) as pool:
        futures = [pool.submit(fill, _copy(rng)) for _ in range(threads - 1)]
        fill(_copy(rng))
    for future in futures:
        future.result()
    # advance() drops the buffered 32-bit half that random() never touches
    buffered = rng.bit_generator.state
    rng.bit_generator.advance(n * width)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = buffered["has_uint32"], buffered["uinteger"]
    rng.bit_generator.state = state
    return bits


def _copy(rng: np.random.Generator) -> np.random.Generator:
    """A generator on its own copy of ``rng``'s bit generator state."""
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def _fill(bits, positions, claim, block_rows: int, probs: PerturbProbabilities, rng):
    """Fills each block of ``block_rows`` rows whose first row ``claim()``
    hands out (in increasing order) with the uniforms at that row's offset
    in ``rng``'s stream, counted from where ``rng`` stood on entry."""
    n, width = bits.shape
    buf = np.empty((min(block_rows, n), width))
    rows = np.arange(buf.shape[0])
    done = 0  # rows of the stream that rng has passed
    while (start := claim()) is not None:
        if start > done:
            rng.bit_generator.advance((start - done) * width)
        stop = min(start + block_rows, n)
        uniforms = buf[: stop - start]
        rng.random(out=uniforms)
        out = bits[start:stop]
        np.less(uniforms, probs.q, out=out.view(np.bool_))
        r, targets = rows[: stop - start], positions[start:stop]
        out[r, targets] = uniforms[r, targets] < probs.p
        done = stop


def estimate_frequency(
    indicator_counts: np.ndarray, n: int, probs: PerturbProbabilities
) -> FrequencyEstimate:
    """Debiased per-zone counts: raw[j] = (counts[j] - n*q) / (p - q).

    ``counts[j]`` is how many of the ``n`` reports support zone j under the
    mechanism's decoding; a report supports the true zone with probability p
    and any other zone with probability q, which this inverts in expectation.
    """
    counts = np.asarray(indicator_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ValueError("indicator_counts must be a nonempty 1-d vector")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if np.any(counts < 0) or np.any(counts > n):
        raise ValueError("each count must lie in [0, n]")
    raw = (counts - n * probs.q) / (probs.p - probs.q)
    return FrequencyEstimate.from_raw(raw, n)


class ReportBatch:
    """Many reports of one mechanism as one array per report field.

    A subclass is a frozen dataclass whose fields are the fields of its
    ``report_type``, in the same order and under the same (wire) names,
    with one numpy dtype per field in ``dtypes``. Scalar report fields
    become 1-d arrays and tuple fields n x width arrays; uint8 fields hold
    bits.
    """

    report_type: ClassVar[type]
    dtypes: ClassVar[tuple]

    @property
    def n_reports(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def reports(self) -> list:
        """One report per user, holding plain Python values."""
        columns = [
            a.tolist() if a.ndim == 1 else list(map(tuple, a.tolist()))
            for a in (getattr(self, f.name) for f in fields(self))
        ]
        return list(itertools.starmap(self.report_type, zip(*columns)))

    @classmethod
    def of(cls, reports) -> "ReportBatch":
        """``reports`` itself if it is this batch type, else a sequence of
        ``report_type`` reports converted field by field.

        Raises ParamMismatch, truncating nothing, for a report of another
        type, an integer field holding a float or a bool, a bit outside
        {0, 1}, a non-finite float field, a value outside its dtype, or
        rows of unequal width.
        """
        if isinstance(reports, cls):
            return reports
        reports = list(reports)
        if any(type(r) is not cls.report_type for r in reports):
            raise ParamMismatch(f"{cls.__name__} takes only {cls.report_type.__name__}s")
        hints = get_type_hints(cls.report_type)
        return cls(*(
            _column(reports, f.name, dtype, hints[f.name] is tuple)
            for f, dtype in zip(fields(cls), cls.dtypes)
        ))


def _column(reports: list, name: str, dtype, rows: bool) -> np.ndarray:
    """One report field as a checked array; ``rows`` if each value is a tuple."""
    values = [getattr(r, name) for r in reports]
    dtype = np.dtype(dtype)
    integral = dtype.kind in "iu"
    cells = itertools.chain.from_iterable(values) if rows else values
    try:
        types = set(map(type, cells))
    except TypeError:
        raise ParamMismatch(f"report field {name!r} must hold tuples") from None
    allowed = (int,) if integral else (int, float)
    bad = [t.__name__ for t in types if issubclass(t, bool) or not issubclass(t, allowed)]
    if bad:
        what = "integers" if integral else "numbers"
        raise ParamMismatch(f"report field {name!r} holds {min(bad)}, not {what}")
    try:
        array = np.array(values, dtype=dtype)
    except (ValueError, OverflowError) as exc:  # unequal rows, out of dtype range
        raise ParamMismatch(f"report field {name!r}: {exc}") from None
    if dtype == np.uint8 and array.size and array.max() > 1:
        raise ParamMismatch(f"report field {name!r} holds a bit other than 0 or 1")
    if not integral and not np.isfinite(array).all():
        raise ParamMismatch(f"report field {name!r} holds a non-finite value")
    return array


# --- report payloads -------------------------------------------------------
# One frozen dataclass per mechanism, field names matching the wire format,
# each followed by its batch: the same fields as arrays.


@dataclass(frozen=True)
class OlhReport:
    hash_seed: int  # identifies the user's hash function
    value: int  # hashed-and-perturbed bucket in [0, g)


@dataclass(frozen=True)
class OlhBatch(ReportBatch):
    report_type = OlhReport
    dtypes = (np.uint64, np.int64)
    hash_seed: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class OueReport:
    bits: tuple  # L bits


@dataclass(frozen=True)
class OueBatch(ReportBatch):
    report_type = OueReport
    dtypes = (np.uint8,)
    bits: np.ndarray  # n x L


@dataclass(frozen=True)
class TheReport:
    values: tuple  # L noisy reals


@dataclass(frozen=True)
class TheBatch(ReportBatch):
    report_type = TheReport
    dtypes = (np.float64,)
    values: np.ndarray  # n x L


@dataclass(frozen=True)
class HrReport:
    row_index: int  # row of the transform matrix, in [0, d')
    signed_value: float  # +/- scaled matrix entry


@dataclass(frozen=True)
class HrBatch(ReportBatch):
    report_type = HrReport
    dtypes = (np.int64, np.float64)
    row_index: np.ndarray
    signed_value: np.ndarray


@dataclass(frozen=True)
class CmsReport:
    hash_index: int  # which family member the user applied, in [0, k)
    bits: tuple  # m bits


@dataclass(frozen=True)
class CmsBatch(ReportBatch):
    report_type = CmsReport
    dtypes = (np.int64, np.uint8)
    hash_index: np.ndarray
    bits: np.ndarray  # n x m


@dataclass(frozen=True)
class RapporReport:
    cohort: int  # user's cohort, in [0, m)
    bits: tuple  # k bits


@dataclass(frozen=True)
class RapporBatch(ReportBatch):
    report_type = RapporReport
    dtypes = (np.int64, np.uint8)
    cohort: np.ndarray
    bits: np.ndarray  # n x k


Report = Union[OlhReport, OueReport, TheReport, HrReport, CmsReport, RapporReport]


class FrequencyOracle(abc.ABC):
    """Perturb/aggregate pair for one mechanism at fixed (l_zones, epsilon).

    perturb_batch() perturbs a whole population in vectorized form and
    returns a ReportBatch whose reports() lists one report per user.
    perturb() handles one user as a batch of one, so each mechanism has a
    single sampler. aggregate() accepts either a sequence of reports or a
    batch container.
    """

    name: ClassVar[str]
    _probs: PerturbProbabilities  # set by each mechanism's constructor

    def __init__(self, l_zones: int, epsilon: float):
        if l_zones < 1:
            raise ValueError("l_zones must be positive")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        self.l_zones = int(l_zones)
        self.epsilon = float(epsilon)

    def _check_zones(self, zones) -> np.ndarray:
        zones = np.asarray(zones, dtype=np.int64)
        if zones.ndim != 1:
            raise ValueError("zones must be a 1-d vector")
        if zones.size and (zones.min() < 0 or zones.max() >= self.l_zones):
            raise ValueError(f"zone indices out of range [0, {self.l_zones})")
        return zones

    def probabilities(self) -> PerturbProbabilities:
        """The (p, q) pair the aggregator debiases with."""
        return self._probs

    def perturb(self, zone: int, rng: np.random.Generator) -> Report:
        """Perturb one user's zone into a report: a batch of one."""
        return self.perturb_batch([zone], rng).reports()[0]

    @abc.abstractmethod
    def perturb_batch(self, zones, rng: np.random.Generator):
        """Perturb many users at once; returns a mechanism batch container."""

    @abc.abstractmethod
    def aggregate(self, reports) -> FrequencyEstimate:
        """Reduce reports to per-zone estimated counts."""



class HashedSketch(FrequencyOracle):
    """A rows x width hashed one-hot sketch (Erlingsson et al., "RAPPOR",
    CCS 2014), the client and statistic that CMS and RAPPOR share.

    Row r of a public hash family, seeded from ``hash_seed``, sends zone v
    to bit ``targets[r, v]``. A client draws one row uniformly, sets its
    zone's bit in a width-bit row and randomizes every bit with
    ``one_hot_rr`` at budget eps/2 per bit. A zone change moves exactly two
    bits, so the whole report is eps-private. The aggregator checks a
    batch against the sketch, reduces it to per-(row, bit) sums and
    debiases them. A subclass names the sizes, the report batch (row index
    field first, then the bits), the reduction and the decoder.
    """

    def __init__(
        self, l_zones: int, epsilon: float, rows: int, width: int, hash_seed: int
    ):
        super().__init__(l_zones, epsilon)
        if rows < 1 or width < 1:
            raise ValueError("sketch rows and width must be >= 1")
        self.hash_seed = int(hash_seed)
        self._width = int(width)
        half = math.exp(self.epsilon / 2.0)
        self._probs = PerturbProbabilities(p=half / (half + 1.0), q=1.0 / (half + 1.0))
        seeds = family_member_seed(self.hash_seed, np.arange(int(rows)))
        zone_ids = np.arange(self.l_zones, dtype=np.uint64)
        # rows x L table of hashed positions, shared by clients and aggregator
        self.targets = hash_bucket_array(seeds[:, None], zone_ids[None, :], self._width)

    def _perturb_rows(self, zones, rng: np.random.Generator):
        """Each user's uniformly drawn row index and randomized bit row."""
        zones = self._check_zones(zones)
        rows = rng.integers(0, self.targets.shape[0], size=zones.size)
        bits = one_hot_rr(self.targets[rows, zones], self._width, self._probs, rng)
        return rows, bits

    def _row_sizes(self, batch: ReportBatch) -> np.ndarray:
        """Reports per row of a nonempty batch; ParamMismatch for rows of
        the wrong width or a row index out of range (naming its field)."""
        index_field = fields(batch)[0].name
        rows, width = self.targets.shape[0], batch.bits.shape[1]
        if width != self._width:
            raise ParamMismatch(f"report width {width} != sketch width {self._width}")
        index = getattr(batch, index_field)
        if index.min() < 0 or index.max() >= rows:
            raise ParamMismatch(f"{index_field} out of range [0, {rows})")
        return np.bincount(index, minlength=rows)

    def _debias(self, bit_sums: np.ndarray, row_sizes: np.ndarray) -> np.ndarray:
        """Per-(row, bit) sums minus their noise floor, over p - q."""
        p, q = self._probs.p, self._probs.q
        return (bit_sums - row_sizes[:, None] * q) / (p - q)
