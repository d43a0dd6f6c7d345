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


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Avalanche-mix uint64 values elementwise; matches mix64 bit for bit."""
    z = x.astype(np.uint64, copy=True)
    z += np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def hash_bucket(seed: int, value: int, n_buckets: int) -> int:
    """Bucket of ``value`` under the hash function identified by ``seed``."""
    combined = (int(seed) + _VALUE_STEP * (int(value) + 1)) & _MASK
    return mix64(combined) % n_buckets


def hash_bucket_array(seeds, values, n_buckets: int) -> np.ndarray:
    """Vectorized hash_bucket; ``seeds`` and ``values`` broadcast together.

    hash_bucket_array(seeds[:, None], values[None, :], g) tabulates every
    listed hash function over every value in one pass.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    values = np.asarray(values, dtype=np.uint64)
    # the hash wraps mod 2^64 by design; with a scalar operand numpy does
    # the product in scalar math, which would warn on that wrap
    with np.errstate(over="ignore"):
        combined = seeds + np.uint64(_VALUE_STEP) * (values + np.uint64(1))
        return (mix64_array(combined) % np.uint64(n_buckets)).astype(np.int64)


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
