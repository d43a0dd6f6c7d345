"""k-ary randomized response, the client of the single-value reports."""
import math

import numpy as np
import pytest

import ldp_enum
from zoneldp.oracles.base import k_rr
from zoneldp.oracles.olh import domain_size

EPSILON = 1.0


def _keep(k: int) -> float:
    e = math.exp(EPSILON)
    return e / (e + k - 1.0)


@pytest.mark.parametrize("k", [2, domain_size(EPSILON)])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_outcomes_follow_the_enumerated_distribution(k, where):
    # 0 and k - 1 are the edges of the shift past the true value
    value = {"first": 0, "middle": k // 2, "last": k - 1}[where]
    n = 40_000
    out = k_rr(np.full(n, value), k, _keep(k), np.random.default_rng(k + value))
    assert out.dtype == np.int64
    counts = np.bincount(out, minlength=k)
    assert counts.size == k
    for outcome, prob in ldp_enum.olh_conditional_dist(value, k, EPSILON).items():
        sigma = math.sqrt(prob * (1 - prob) / n)
        assert abs(counts[outcome] / n - prob) <= 4.0 * sigma


@pytest.mark.parametrize("k", [2, 3, domain_size(EPSILON), 1 << 31])
def test_draws_are_a_uniform_per_value_then_the_others(k):
    # at k = 2 integers(0, 1, n) reads nothing, so the job reads only
    # random(n); a numpy that changes either draw fails here by name
    values = np.random.default_rng(0).integers(0, k, size=257)
    rng, replay = np.random.default_rng(11), np.random.default_rng(11)
    out = k_rr(values, k, _keep(k), rng)
    keep = replay.random(values.size) < _keep(k)
    if k > 2:
        others = replay.integers(0, k - 1, values.size)
    else:
        others = np.zeros(values.size, dtype=np.int64)
    assert rng.bit_generator.state == replay.bit_generator.state
    assert np.array_equal(out, np.where(keep, values, others + (others >= values)))
