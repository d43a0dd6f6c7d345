"""Seeded 64-bit avalanche hashing shared by the hash-based mechanisms.

Python's builtin hash() is salted per process, so it cannot back a
reproducible protocol. This module provides a splitmix-style finalizer in
two exactly-matching flavors: scalar (python ints, for single values and
as the tests' reference) and vectorized (uint64 arrays, used for batches,
hash-family tables and aggregators). A hash function is identified by a
64-bit seed; reducing the mixed value modulo the bucket count yields the
hashed bucket.
"""
from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15  # splitmix increment
_VALUE_STEP = 0xD1342543DE82EF95  # odd multiplier separating input values
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """Avalanche-mix one 64-bit value (scalar path)."""
    z = (int(x) + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def mix64_array(x) -> np.ndarray:
    """Avalanche-mix uint64 values elementwise; matches mix64 bit for bit.

    ``x`` is left as it is; a 0-d input gives a numpy scalar.
    """
    z = np.array(x, dtype=np.uint64)  # a copy, mixed in place
    _mix_in_place(z)
    return z if z.ndim else z[()]


def _mix_in_place(z: np.ndarray) -> None:
    """The mix64 finalizer on a uint64 array, overwriting it; one scratch
    array of the same size serves every shift."""
    shifted = np.empty_like(z)
    z += np.uint64(_GAMMA)
    for shift, multiplier in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(multiplier)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted


def hash_bucket(seed: int, value: int, n_buckets: int) -> int:
    """Bucket of ``value`` under the hash function identified by ``seed``."""
    combined = (int(seed) + _VALUE_STEP * (int(value) + 1)) & _MASK
    return mix64(combined) % n_buckets


def hash_bucket_array(seeds, values, n_buckets: int) -> np.ndarray:
    """Vectorized hash_bucket; ``seeds`` and ``values`` broadcast together.

    hash_bucket_array(seeds[:, None], values[None, :], g) tabulates every
    listed hash function over every value in one pass. The int64 result is
    the only array of the broadcast shape it allocates, apart from one
    scratch array; the inputs are left as they are, and 0-d inputs give a
    numpy scalar.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    values = np.asarray(values, dtype=np.uint64)
    # the hash wraps mod 2^64 by design; with a 0-d operand numpy does the
    # arithmetic in scalar math, which would warn on that wrap
    with np.errstate(over="ignore"):
        step = (values + np.uint64(1)) * np.uint64(_VALUE_STEP)
    z = np.empty(np.broadcast_shapes(seeds.shape, step.shape), dtype=np.uint64)
    np.add(seeds, step, out=z)
    _mix_in_place(z)
    z %= np.uint64(n_buckets)
    # the values that astype(np.int64) gives, without a copy
    buckets = z.view(np.int64)
    return buckets if buckets.ndim else buckets[()]


def family_member_seed(base_seed: int, index):
    """Seed of the ``index``-th function in the family rooted at ``base_seed``.

    A scalar index gives an int; an index array gives the uint64 seeds of
    those members, so family_member_seed(base, np.arange(k)) tabulates a
    whole k-member family in one call.
    """
    if np.ndim(index) == 0:
        return mix64((int(base_seed) ^ ((int(index) + 1) * _GAMMA)) & _MASK)
    offsets = (np.asarray(index, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)
    return mix64_array(np.uint64(int(base_seed) & _MASK) ^ offsets)
