"""Shared oracle machinery: probability pairs, report batches, the additive
statistic, the debiased frequency estimator, the mechanism base class and
the hashed sketch.

Every mechanism is a client randomizer, an additive integer statistic and a
decoder. Perturbation runs client-side on each user's zone index;
``reduce`` turns a batch of reports into a ``Stats`` of integer arrays,
``Stats`` of disjoint batches add up to the ``Stats`` of their union, and
``decode`` turns a ``Stats`` into per-zone count estimates. So a round can
perturb and reduce its users a chunk at a time (``perturb_chunks``) and
hold one chunk of reports, whatever the population size. Because the
statistic is a sum, the estimate is invariant under any permutation of the
reports. Each mechanism is defined by its (p, q) pair, which the base
class returns from ``probabilities()``. The four mechanisms that report a
randomized one-hot bit row (OUE and THE over the L zones, CMS and RAPPOR
over a hashed row) share one client randomizer, ``one_hot_rr``: each bit
compares one 16-bit lane of the generator's raw stream against an integer
threshold, so these four mechanisms hold their (p, q) pair on the 2^-16
grid (``lane_probabilities``), the pair the client realizes exactly. The
two mechanisms that report one value (OLH's hashed bucket over g values
and HR's parity bit of one transform entry) share the other client
randomizer, ``k_rr``: k-ary randomized response. Both
per-cell loops (``one_hot_rr``'s words of four lanes and OLH's hash
replay) run on one block scheduler, ``run_blocks``, which fills large
jobs on the process's threads, one per core, drawing from jump-ahead
copies of the caller's PCG64 generator, without changing a bit of the
output. RAPPOR's decoder, the only BLAS caller, holds numpy's OpenBLAS
to one thread (``one_blas_thread``), so its fit, too, is the same for any
core count. CMS and RAPPOR are one ``HashedSketch``: the same hash table
and client under their own size names, each with its own statistic and
decoder.

A batch is the only form a report takes. Each mechanism's reports travel
between perturb_batch and reduce as a ``ReportBatch``: one array per
report field, under the field's wire name, with user i's report in row i.
Every field is an integer array, so the wire carries integers only.
``ReportBatch.of`` converts and checks wire payloads from outside, and
``FrequencyOracle.reduce``, every aggregator's one entry, checks any batch
against the bit-row width and index bounds its mechanism declares.
"""
from __future__ import annotations

import abc
import contextlib
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, fields
from typing import ClassVar, Optional

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


# values a 16-bit lane takes: one_hot_rr's probabilities are multiples of
# 1/_LANE
_LANE = 1 << 16

# cells per block of the blocked loops, over all threads: each job's
# per-block scratch stays near 4 MB of 8-byte cells (512 rows at width
# 1024, 8192 rows at width 64), and a job of at most one block runs on one
# thread. one_hot_rr's cells, raw words of four lanes, use this size: a
# block is 2048 rows of a 1024-bit CMS report.
_BLOCK_CELLS = 1 << 19

# cells per block of OLH's hash replay, which costs more per cell. A
# thread's block (64k cells on two cores) keeps its scratch arrays in the
# core's cache, and jobs of a quarter of the size already gain from a
# split. Measured on a 2-core host against blocks of _BLOCK_CELLS: 17.7k
# users' hash replay over 373 zones took 0.039 s against 0.043-0.061 s.
_SMALL_BLOCK_CELLS = 1 << 17

# bytes of reports that perturb_chunks hands out at a time, 4 MB: a chunk
# of one-byte bits is 2 blocks of _BLOCK_CELLS raw words (a 4096-row CMS
# chunk reads 2^20 words, four bits each), so it splits onto at most two
# threads. Measured on 50k CMS reports at m = 1024, 4096-row chunks reduce
# in 31-38 ms, as fast as the whole batch at once.
_CHUNK_BYTES = 8 * _BLOCK_CELLS

# raw words that one_hot_rr draws at a time in a job of more than one
# block, such as a full chunk, 256 kB: a thread's lanes (2 bytes a bit)
# stay a small part of the chunk's bits, so a round holds little more than
# one chunk. A job of one block draws it whole: on a 2-core host a
# piecewise draw of a 354 x 1024 job took 1.6 times as long, lost to the
# allocator mapping and unmapping each piece, while chunked rounds of
# 50k x 1024 and 17.5k x 368 bits ran as fast as with whole blocks.
_DRAW_WORDS = 1 << 15


def _cores() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# the process's worker threads as (threads, pool), made on first use
_pool: Optional[tuple] = None
_pool_lock = threading.Lock()


def _thread_pool(threads: int):
    """The process's pool of worker threads, a ``ThreadPoolExecutor``
    holding at least ``threads``.

    It is made on first use, and made again, larger, when a call needs more
    threads than it holds (when the cores this process may use grow). A
    caller still holding the old pool finishes on it; its threads end once
    nothing refers to it. ``concurrent.futures`` is imported here, not with
    the module: only a job of more than one block needs it.
    """
    from concurrent.futures import ThreadPoolExecutor

    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < threads:
            _pool = (threads, ThreadPoolExecutor(threads))
        return _pool[1]


def _forget_pool() -> None:
    """In a forked child the parent's threads do not exist, and its pool
    lock may be held by one of them: start over with neither."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, found
    once by name in ``numpy.libs``; None where numpy runs on another BLAS.

    Opening the library numpy has already loaded hands back the same copy,
    so the calls act on numpy's BLAS.
    """
    import ctypes  # numpy has loaded it already

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_"))
    except OSError:
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# decodes inside one_blas_thread, and the thread count they found
_blas_holders, _blas_saved = 0, 1
_blas_lock = threading.Lock()


@contextlib.contextmanager
def one_blas_thread():
    """Runs its body with numpy's OpenBLAS held to one thread, then puts
    back the caller's thread count, on errors too.

    LAPACK's factorizations and BLAS's products round differently with the
    thread count, and idle OpenBLAS threads spin for a while after a call,
    taking cores from ``run_blocks``' threads. One thread gives the same
    bits on any host with the same BLAS build and core type, whatever its
    core count. Bodies that overlap on several threads share the pin: the
    first one in sets it and the last one out restores the count. Where
    numpy's BLAS is not its bundled OpenBLAS, the body runs unpinned, on
    whatever threads that BLAS uses.
    """
    global _blas_holders, _blas_saved
    with _blas_lock:
        calls = _openblas_threads()
        if calls is not None and _blas_holders == 0:
            _blas_saved = calls[0]()
            calls[1](1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if calls is not None and _blas_holders == 0:
                calls[1](_blas_saved)


def _forget_blas_holders() -> None:
    """In a forked child no decode is running, and the parent's lock may
    be held by one of its threads: put back a count that one of them had
    pinned and start over with a new lock."""
    global _blas_holders, _blas_lock
    if _blas_holders and (calls := _openblas_threads()) is not None:
        calls[1](_blas_saved)
    _blas_holders, _blas_lock = 0, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)
    os.register_at_fork(after_in_child=_forget_blas_holders)


def run_blocks(
    n: int,
    width: int,
    block,
    rng: Optional[np.random.Generator] = None,
    cells: Optional[int] = None,
) -> list:
    """Calls ``block(start, stop, gen)`` on each block of rows [start, stop)
    of an n x width job and returns the results in row order.

    A block holds ``cells`` cells (default ``_BLOCK_CELLS``) summed over
    all threads. When the job has more than that, one thread per available
    core (at most one per block) runs blocks: the calling thread and
    threads of the process's pool, which lives as long as the process (a
    forked child makes its own). The call returns once every block has
    run. A thread takes the next unclaimed block when it is free, so a core
    that runs slowly runs fewer blocks. Otherwise every block runs in order
    on the calling thread. Blocks must write disjoint rows.

    ``gen`` is None for a job that draws nothing. For a job that draws,
    ``rng`` is the caller's generator, and the job must read one 64-bit
    word of its stream per cell, in row-major order, so that the result
    equals one draw of all n x width cells: ``one_hot_rr``'s cell is one
    raw word, four of its 16-bit lanes. Run in order, blocks share ``rng``
    itself. Split, each thread holds a copy of ``rng`` and jumps it ahead
    to the first cell of every block it takes; that is exact only for
    PCG64 and PCG64DXSM, so other bit generators never split. Either way
    ``rng`` ends where one draw leaves it, buffered 32-bit half included.
    """
    cells = _BLOCK_CELLS if cells is None else cells
    threads = 1
    # only these bit generators' advance(k) skips exactly the k 64-bit words
    # that k cells consume; looked up here because numpy loads
    # numpy.random on first use, and import zoneldp does not need it
    jumpable = rng is None or type(rng.bit_generator) in (
        np.random.PCG64,
        np.random.PCG64DXSM,
    )
    if jumpable and n * width > cells:
        threads = min(_cores(), -(-n * width // cells))
    block_rows = max(1, cells // (threads * width))
    bounds = [(start, min(start + block_rows, n)) for start in range(0, n, block_rows)]
    if threads == 1:
        return [block(start, stop, rng) for start, stop in bounds]

    results = [None] * len(bounds)
    claims, lock = iter(range(len(bounds))), threading.Lock()

    def claim():
        """Index of the next unclaimed block, None when all are taken."""
        with lock:
            return next(claims, None)

    def work(gen) -> None:
        """Runs blocks until none is left, drawing from ``gen``, a copy of
        ``rng`` or None."""
        done = 0  # rows of the stream that gen has passed
        while (i := claim()) is not None:
            start, stop = bounds[i]
            if gen is not None and start > done:
                gen.bit_generator.advance((start - done) * width)
            results[i] = block(start, stop, gen)
            done = stop

    from concurrent.futures import wait

    copies = [None if rng is None else _copy(rng) for _ in range(threads)]
    pool = _thread_pool(threads - 1)
    futures = [pool.submit(work, gen) for gen in copies[1:]]
    try:
        work(copies[0])
    finally:  # no block outlives the call, even one after an error
        wait(futures)
    for future in futures:
        future.result()
    if rng is None:
        return results
    # advance() drops the buffered 32-bit half that a cell never touches
    buffered = rng.bit_generator.state
    rng.bit_generator.advance(n * width)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = buffered["has_uint32"], buffered["uinteger"]
    rng.bit_generator.state = state
    return results


def _copy(rng: np.random.Generator) -> np.random.Generator:
    """A generator on its own copy of ``rng``'s bit generator state."""
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def lane_probabilities(probs: PerturbProbabilities) -> PerturbProbabilities:
    """A closed-form pair rounded onto the 2^-16 grid, p down (to at most
    1 - 2^-16, the most a lane threshold can give) and q up: exactly the
    pair ``one_hot_rr`` realizes from either.

    The rounding only narrows both ratios p/q and (1 - q)/(1 - p), so a
    likelihood-ratio bound that holds for the closed form holds for the
    rounded pair, and debiasing with it is exactly unbiased. Neither ratio
    exceeds 2^16 - 1, so a bit spends at most ln(2^16 - 1) ~ 11.09 of the
    budget, however large the closed form's. DegenerateProbabilities for a
    pair that the grid does not keep apart: OUE and THE (at theta = 1)
    below a budget of about 2^-14, CMS and RAPPOR below about 2^-13, and
    THE at a theta so far out that p rounds to 0 or q to 1.
    """
    return PerturbProbabilities(
        p=min(math.floor(probs.p * _LANE), _LANE - 1) / _LANE,
        q=math.ceil(probs.q * _LANE) / _LANE,
    )


def _lanes(gen: np.random.Generator, words: int) -> np.ndarray:
    """4 * ``words`` uniform 16-bit lanes from ``words`` raw 64-bit words
    of ``gen``, low lane first, leaving a buffered 32-bit half untouched.
    MT19937's raw outputs hold 32 bits, so it gives two lanes per output,
    from two outputs per word."""
    bit_generator = gen.bit_generator
    if isinstance(bit_generator, np.random.MT19937):
        return bit_generator.random_raw(2 * words).astype("<u4").view("<u2")
    return bit_generator.random_raw(words).astype("<u8", copy=False).view("<u2")


def one_hot_rr(
    positions, width: int, probs: PerturbProbabilities, rng: np.random.Generator
) -> np.ndarray:
    """Per-bit randomized response on one-hot rows; returns n x width uint8.

    Row i has a 1 at ``positions[i]`` before randomization: that bit is
    reported as 1 with probability p and every other bit with probability
    q, both taken on the 2^-16 grid as ``lane_probabilities`` rounds them.
    Each bit is one uniform 16-bit lane compared against its integer
    threshold. Row i reads the ceil(width / 4) raw words of the stream
    after row i - 1's, four lanes a word, low lane first; a width that is
    not a multiple of four drops the high lanes of the row's last word. So
    a job of n rows reads n * ceil(width / 4) words and leaves ``rng`` where
    ``rng.bit_generator.random_raw`` of that many would, buffered 32-bit
    half untouched. Rows are filled in blocks by ``run_blocks`` with the
    word as its cell, and a job of more than one block draws about
    ``_DRAW_WORDS`` words at a time, so memory stays bounded for any n and
    the bits are the same for any core count.
    """
    positions = np.asarray(positions, dtype=np.int64)
    n = positions.size
    bits = np.empty((n, width), dtype=np.uint8)
    words = -(-width // 4)
    grid = lane_probabilities(probs)
    t_p, t_q = np.uint16(grid.p * _LANE), np.uint16(grid.q * _LANE)
    step = max(1, n if n * words <= _BLOCK_CELLS else _DRAW_WORDS // words)

    def fill(start, stop, gen):
        for low in range(start, stop, step):
            rows = min(step, stop - low)
            lanes = _lanes(gen, rows * words).reshape(rows, 4 * words)[:, :width]
            out = bits[low:low + rows]
            np.less(lanes, t_q, out=out.view(np.bool_))
            index, targets = np.arange(rows), positions[low:low + rows]
            out[index, targets] = lanes[index, targets] < t_p
            del lanes  # freed before the next piece is drawn

    run_blocks(n, words, fill, rng)
    return bits


def k_rr(values, k: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """k-ary randomized response on values in [0, k), as int64: each is kept
    with probability p, else one of the other k - 1 values, uniformly. Reads
    ``rng.random(n)``, then ``rng.integers(0, k - 1, n)``, which reads
    nothing at k = 2, where the other value is the flipped bit."""
    values = np.asarray(values, dtype=np.int64)
    keep = rng.random(values.size) < p
    others = rng.integers(0, k - 1, values.size)
    others += others >= values
    return np.where(keep, values, others)


def column_sums(bits: np.ndarray) -> np.ndarray:
    """Per-column sums of an n x width 0/1 uint8 matrix as int64, added up
    in the narrowest unsigned type that holds n: three times as fast as
    adding in int64 at widths of a few hundred and more."""
    narrow = np.min_scalar_type(bits.shape[0])
    return bits.sum(axis=0, dtype=narrow).astype(np.int64)


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


def _check_layout(want: tuple, got: tuple) -> None:
    """ParamMismatch unless a ``Stats._shape()`` ``got`` fits ``want``."""
    if got != want:
        raise ParamMismatch(
            "a statistic of (mechanism, counts, rows, sketch, hash seed) "
            f"{got} does not fit one of {want}"
        )


@dataclass(frozen=True)
class Stats:
    """The additive integer statistic of some reports of one mechanism.

    ``counts`` is int64: per-zone support counts (OUE, THE, OLH), per-row
    sign sums (HR), per-zone hits of a count-mean sketch (CMS) or the
    rows x width bit sums of a RAPPOR sketch, whose reports per row are
    ``row_sizes`` (None for the others). A sketch's statistic also
    carries the sketch's (rows, width) as ``sketch_sizes`` and the seed
    of its hash family as ``hash_seed`` (both None for the others).
    ``n_reports`` is how many reports were reduced. The ``Stats`` of two
    disjoint sets of reports add up to the ``Stats`` of their union.
    """

    mechanism: str
    n_reports: int
    counts: np.ndarray
    row_sizes: Optional[np.ndarray] = None
    hash_seed: Optional[int] = None
    sketch_sizes: Optional[tuple] = None

    def _shape(self) -> tuple:
        """(mechanism, counts shape, row_sizes shape or None, sketch sizes,
        hash_seed): a sketch's sums mean nothing under another sketch or
        hash family, even where their shapes agree."""
        rows = None if self.row_sizes is None else self.row_sizes.shape
        return self.mechanism, self.counts.shape, rows, self.sketch_sizes, self.hash_seed

    def check_fits(self, other: "Stats") -> None:
        """ParamMismatch unless ``other`` is of this mechanism, shape,
        sketch and hash family."""
        _check_layout(self._shape(), other._shape())

    def __add__(self, other: "Stats") -> "Stats":
        if not isinstance(other, Stats):
            return NotImplemented
        self.check_fits(other)
        rows = None if self.row_sizes is None else self.row_sizes + other.row_sizes
        return Stats(
            self.mechanism, self.n_reports + other.n_reports, self.counts + other.counts,
            rows, self.hash_seed, self.sketch_sizes,
        )


class ReportBatch:
    """Many reports of one mechanism as one array per report field.

    A subclass is a frozen dataclass with one field per report field, under
    its wire name, and one integer numpy dtype per field in ``dtypes``. The
    fields named in ``row_fields`` are n x width arrays, the others 1-d;
    uint8 fields hold bits. Row i of every field is user i's report.
    """

    dtypes: ClassVar[tuple]
    row_fields: ClassVar[tuple] = ()

    @property
    def n_reports(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    @classmethod
    def of(cls, reports) -> "ReportBatch":
        """``reports`` itself if it is this batch type, else a sequence of
        wire payloads (one dict of field values per report, rows as lists)
        converted field by field.

        Raises ParamMismatch, truncating nothing, for a payload that lacks
        a field or has one of another name, a field holding anything but
        integers (a float or a bool too), a bit outside {0, 1}, a value
        outside its dtype, or rows of unequal width.
        """
        if isinstance(reports, cls):
            return reports
        payloads = list(reports)
        names = [f.name for f in fields(cls)]
        expected = set(names)
        for payload in payloads:
            keys = set(payload) if isinstance(payload, dict) else set()
            if keys != expected:
                raise ParamMismatch(
                    f"{cls.__name__} payloads hold {names}: missing "
                    f"{sorted(expected - keys)}, unknown {sorted(keys - expected)}"
                )
        return cls(*(
            _column(payloads, name, dtype, name in cls.row_fields)
            for name, dtype in zip(names, cls.dtypes)
        ))

    @classmethod
    def concat(cls, batches: list) -> "ReportBatch":
        """One batch of the given nonempty batches' reports, in order;
        ParamMismatch for rows of unequal width."""
        columns = []
        for f in fields(cls):
            arrays = [getattr(batch, f.name) for batch in batches]
            if len({array.shape[1:] for array in arrays}) > 1:
                raise ParamMismatch(f"report field {f.name!r} holds rows of unequal width")
            columns.append(np.concatenate(arrays))
        return cls(*columns)


def _column(payloads: list, name: str, dtype, rows: bool) -> np.ndarray:
    """One report field's integers, checked; ``rows`` if each value is a row."""
    values = [p[name] for p in payloads]
    cells = itertools.chain.from_iterable(values) if rows else values
    try:
        types = set(map(type, cells))
    except TypeError:
        raise ParamMismatch(f"report field {name!r} must hold rows") from None
    bad = [t.__name__ for t in types if issubclass(t, bool) or not issubclass(t, int)]
    if bad:
        raise ParamMismatch(f"report field {name!r} holds {min(bad)}, not integers")
    try:
        array = np.array(values, dtype=dtype)
    except (ValueError, OverflowError) as exc:  # unequal rows, out of dtype range
        raise ParamMismatch(f"report field {name!r}: {exc}") from None
    if array.dtype == np.uint8 and array.size and array.max() > 1:
        raise ParamMismatch(f"report field {name!r} holds a bit other than 0 or 1")
    return array


# --- report batches ----------------------------------------------------------
# One frozen dataclass per mechanism, field names matching the wire format.


@dataclass(frozen=True)
class OlhBatch(ReportBatch):
    dtypes = (np.uint64, np.int64)
    hash_seed: np.ndarray  # identifies each user's hash function
    value: np.ndarray  # hashed-and-perturbed bucket in [0, g)


@dataclass(frozen=True)
class OueBatch(ReportBatch):
    dtypes = (np.uint8,)
    row_fields = ("bits",)
    bits: np.ndarray  # n x L


@dataclass(frozen=True)
class HrBatch(ReportBatch):
    dtypes = (np.int64, np.uint8)
    row_index: np.ndarray  # row of the transform matrix, in [0, d')
    bit: np.ndarray  # the entry's randomized sign: 0 for +1, 1 for -1


@dataclass(frozen=True)
class CmsBatch(ReportBatch):
    dtypes = (np.int64, np.uint8)
    row_fields = ("bits",)
    hash_index: np.ndarray  # which family member each user applied, in [0, k)
    bits: np.ndarray  # n x m


@dataclass(frozen=True)
class RapporBatch(ReportBatch):
    dtypes = (np.int64, np.uint8)
    row_fields = ("bits",)
    cohort: np.ndarray  # each user's cohort, in [0, m)
    bits: np.ndarray  # n x k


class FrequencyOracle(abc.ABC):
    """Perturb/reduce/decode for one mechanism at fixed (l_zones, epsilon).

    perturb_batch() perturbs many users' zones into one ReportBatch, one
    report per row; a single client is ``perturb_batch([zone], rng)``, so
    each mechanism has a single sampler. perturb_chunks() hands out the
    same reports a bounded chunk at a time. reduce() turns a batch, or
    wire payloads that the batch type's ``of`` converts and checks, into
    the mechanism's ``Stats``; decode() turns the ``Stats`` of at least one
    report into per-zone estimates. aggregate() is the checked entry point
    that takes either. ``reduce``, ``empty_stats``, ``_stats`` and the fit
    check are written once, here, from what a mechanism declares: its
    ``batch_type``, its bit row's ``_width``, each index field's bound
    (``_bounds``) and its statistic's ``Stats._shape()`` (``_layout``). A
    mechanism writes only its client, ``_count`` and, where the per-zone
    debias does not fit, ``decode``. Every concrete class binds
    ``perturb_batch`` and ``aggregate`` in its own namespace, so one
    mechanism's pair can be wrapped or replaced (for profiling, or in a
    test) without touching the others.
    """

    name: ClassVar[str]
    batch_type: ClassVar[type]  # the ReportBatch subclass of its reports
    _probs: PerturbProbabilities  # set by each mechanism's constructor
    # bytes (bits) of one report's bit row; 0 for reports of a few scalars,
    # whose scalars perturb_batch draws field by field for all users
    _width: int = 0

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

    @abc.abstractmethod
    def perturb_batch(self, zones, rng: np.random.Generator):
        """Perturb many users at once; returns a mechanism batch container."""

    def _user_draws(self, zones: np.ndarray, rng: np.random.Generator) -> dict:
        """Per-user randoms that ``perturb_batch`` draws before any per-cell
        one, drawn for all users, under its keyword names."""
        return {}

    def perturb_chunks(self, zones, rng: np.random.Generator):
        """``perturb_batch`` over consecutive chunks of the users, yielding
        one batch of at most about ``_CHUNK_BYTES`` of reports at a time.

        The per-user draws come first, for all users, and then each chunk
        draws its cells in row order, so the chunks concatenated equal
        ``perturb_batch(zones, rng)`` and leave ``rng`` where it does.
        Reports of a few scalars (OLH, HR) come as one chunk, because
        ``perturb_batch`` draws each of their scalars for all users in turn.
        """
        zones = self._check_zones(zones)
        draws = self._user_draws(zones, rng)
        n = zones.size
        step = max(1, _CHUNK_BYTES // self._width) if self._width else max(n, 1)
        for start in range(0, n, step):
            chunk = slice(start, start + step)
            kwargs = {name: values[chunk] for name, values in draws.items()}
            yield self.perturb_batch(zones[chunk], rng, **kwargs)

    def _bounds(self) -> dict:
        """Each index field's exclusive bound, by field name; none by default."""
        return {}

    def _layout(self) -> tuple:
        """The ``Stats._shape()`` of its statistic: per-zone counts by default."""
        return self.name, (self.l_zones,), None, None, None

    def _stats(self, n: int, counts: np.ndarray, row_sizes=None) -> Stats:
        """The statistic of ``n`` reports, tagged as ``_layout`` says."""
        *_, sketch_sizes, hash_seed = self._layout()
        return Stats(self.name, n, counts, row_sizes, hash_seed, sketch_sizes)

    def empty_stats(self) -> Stats:
        """The statistic of no reports: zeros of ``_layout``'s shapes."""
        _, counts, rows, _, _ = self._layout()
        row_sizes = None if rows is None else np.zeros(rows, dtype=np.int64)
        return self._stats(0, np.zeros(counts, dtype=np.int64), row_sizes)

    def reduce(self, reports) -> Stats:
        """The statistic of a batch, or of wire payloads that the batch
        type's ``of`` converts and checks. ParamMismatch, in a batch built
        in code too, for a bit row of another width than ``_width`` and an
        index field outside its ``_bounds`` (an unsigned one has only its
        maximum checked). HR's sign bit and RAPPOR's bits are bounded, or a
        bit of 2 would land in the next row's sum or the next bit's byte
        lane. OUE's and CMS's column sums keep a bad bit in its own column,
        so they have no bits bound: it would be one more pass over every
        4 MB chunk of bits (51 MB a 50k-user CMS round). Every field must
        have ``n_reports`` rows, each a bit row in a row field.
        """
        batch = self.batch_type.of(reports)
        n = batch.n_reports
        for f in fields(batch):
            shape = getattr(batch, f.name).shape
            ndim = 2 if f.name in batch.row_fields else 1
            if shape[:1] != (n,) or (n and len(shape) != ndim):  # of([]) gives 1-d rows
                raise ParamMismatch(
                    f"report field {f.name!r} has shape {shape}, expected {ndim}-d with {n} rows"
                )
        if n == 0:
            return self.empty_stats()
        for name in batch.row_fields:
            if (width := getattr(batch, name).shape[1]) != self._width:
                raise ParamMismatch(f"report width {width} != {self._width}")
        for name, bound in self._bounds().items():
            values = getattr(batch, name)
            if values.max() >= bound or (values.dtype.kind != "u" and values.min() < 0):
                raise ParamMismatch(f"{name} out of range [0, {bound})")
        return self._count(batch)

    @abc.abstractmethod
    def _count(self, batch: ReportBatch) -> Stats:
        """The statistic of a nonempty batch that ``reduce`` has checked."""

    def decode(self, stats: Stats) -> FrequencyEstimate:
        """Per-zone estimated counts from the statistic of >= 1 report:
        per-zone support counts debiased by the (p, q) pair unless a
        mechanism says otherwise."""
        return estimate_frequency(stats.counts, stats.n_reports, self._probs)

    def aggregate(self, reports) -> FrequencyEstimate:
        """Per-zone estimated counts from this mechanism's ``Stats``, or from
        reports that ``reduce`` takes; zeros for no reports. ParamMismatch
        for a ``Stats`` of another mechanism or shape."""
        stats = reports if isinstance(reports, Stats) else self.reduce(reports)
        _check_layout(self._layout(), stats._shape())
        if stats.n_reports == 0:
            return FrequencyEstimate.from_raw(np.zeros(self.l_zones), 0)
        return self.decode(stats)


class HashedSketch(FrequencyOracle):
    """A rows x width hashed one-hot sketch (Erlingsson et al., "RAPPOR",
    CCS 2014), the client and statistic that CMS and RAPPOR share.

    Row r of a public hash family, seeded from ``hash_seed``, sends zone v
    to bit ``targets[r, v]``. A client draws one row uniformly, sets its
    zone's bit in a width-bit row and randomizes every bit with
    ``one_hot_rr`` at budget eps/2 per bit: p = e^(eps/2) / (e^(eps/2) + 1)
    and q = 1 - p, rounded onto the 2^-16 grid. A zone change moves exactly
    two bits, so the whole report is eps-private. A subclass names the
    sizes, the report batch (row index field first, then the bits), the
    bound of the row index, the statistic's layout, its count and the
    decoder; the layout carries the sketch's sizes and hash seed, so
    statistics of another sketch or family do not add.
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
        self._probs = lane_probabilities(
            PerturbProbabilities(p=half / (half + 1.0), q=1.0 / (half + 1.0))
        )
        seeds = family_member_seed(self.hash_seed, np.arange(int(rows)))
        zone_ids = np.arange(self.l_zones, dtype=np.uint64)
        # rows x L table of hashed positions, shared by clients and aggregator
        self.targets = hash_bucket_array(seeds[:, None], zone_ids[None, :], self._width)

    def _user_draws(self, zones, rng: np.random.Generator) -> dict:
        return {"rows": rng.integers(0, self.targets.shape[0], size=zones.size)}

    def _perturb_rows(self, zones, rng: np.random.Generator, rows=None):
        """Each user's row index, drawn uniformly unless given, and
        randomized bit row."""
        zones = self._check_zones(zones)
        if rows is None:
            rows = self._user_draws(zones, rng)["rows"]
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape != zones.shape or (
            rows.size and (rows.min() < 0 or rows.max() >= self.targets.shape[0])
        ):
            raise ValueError(f"rows must give each zone a row in [0, {self.targets.shape[0]})")
        bits = one_hot_rr(self.targets[rows, zones], self._width, self._probs, rng)
        return rows, bits
