"""Exact report-space distributions, written independently of the library.

Each helper builds {report outcome -> probability} for one mechanism from
the first-principles definition of that mechanism, using only python
floats and itertools. The privacy suites compare these distributions
across input zones and assert the max ratio stays below e^eps;
``within_exp`` checks the same bound on integer lane thresholds exactly. Public
protocol constants that both sides must share (hash target tables, domain
sizes) are passed in by the caller; every probability here is computed
from scratch, never read off the implementation.
"""
from __future__ import annotations

import itertools
import math
from decimal import Context, Decimal, localcontext

# values a 16-bit lane takes: the one-hot clients' probabilities are
# integer thresholds over LANE
LANE = 1 << 16


def within_exp(lhs: int, x: float, rhs: int) -> bool:
    """Whether lhs <= e^x * rhs for integers lhs, rhs and the float x.

    Decimal's exp is correctly rounded, and 80 significant digits carry
    products of 64-bit integers with sixty digits to spare, so only a
    ratio lhs/rhs within 1e-60 of e^x could be misjudged.
    """
    with localcontext(Context(prec=80)):
        return Decimal(lhs) <= Decimal(x).exp() * Decimal(rhs)


def max_ratio(dist_a: dict, dist_b: dict) -> float:
    """sup over outcomes of P_a(outcome) / P_b(outcome).

    Infinite when a carries an outcome b cannot produce, which is itself
    a privacy violation worth surfacing.
    """
    worst = 0.0
    for outcome, pa in dist_a.items():
        if pa <= 0.0:
            continue
        pb = dist_b.get(outcome, 0.0)
        if pb <= 0.0:
            return math.inf
        worst = max(worst, pa / pb)
    return worst


def check_total(dist: dict, tol: float = 1e-9) -> None:
    total = sum(dist.values())
    assert abs(total - 1.0) <= tol, f"probabilities sum to {total}"


def olh_conditional_dist(true_bucket: int, g: int, epsilon: float) -> dict:
    """Distribution of the reported bucket given the user's hash seed.

    The seed is drawn independently of the zone, so the privacy ratio must
    hold conditionally for every seed; conditioning reduces the report to
    its bucket value. Keep the true bucket with e^eps/(e^eps + g - 1),
    otherwise land uniformly on one of the other g - 1 buckets.
    """
    e = math.exp(epsilon)
    keep = e / (e + g - 1.0)
    other = (1.0 - keep) / (g - 1.0)
    return {v: (keep if v == true_bucket else other) for v in range(g)}


def oue_dist(zone: int, l_zones: int, epsilon: float) -> dict:
    """Joint distribution over all 2^L bit vectors.

    The true bit stays set with probability 1/2; every other bit turns on
    with probability 1/(e^eps + 1). Bits are independent.
    """
    q = 1.0 / (math.exp(epsilon) + 1.0)
    dist = {}
    for bits in itertools.product((0, 1), repeat=l_zones):
        prob = 1.0
        for j, bit in enumerate(bits):
            on = 0.5 if j == zone else q
            prob *= on if bit else 1.0 - on
        dist[bits] = prob
    return dist


def the_lane_thresholds(epsilon: float, theta: float = 1.0) -> tuple:
    """THE's pair as integer lane thresholds (t_p, t_q) over LANE.

    A bit is 1[x_j + noise_j >= theta] for Laplace noise of scale 2/eps,
    so it is set with p = P(noise >= theta - 1) on the true zone and
    q = P(noise >= theta) elsewhere. p is rounded down, to at most
    LANE - 1, and q up, both in 80-digit decimals.
    """
    with localcontext(Context(prec=80)):
        scale = 2 / Decimal(epsilon)

        def tail(x: float) -> Decimal:
            x = Decimal(x)
            if x >= 0:
                return (-x / scale).exp() / 2
            return 1 - (x / scale).exp() / 2

        t_p = min(math.floor(tail(theta - 1.0) * LANE), LANE - 1)
        t_q = math.ceil(tail(theta) * LANE)
    return t_p, t_q


def lane_unary_dist(zone: int, l_zones: int, t_p: int, t_q: int) -> dict:
    """Joint distribution over all 2^L bit vectors of a one-hot client on
    the lane grid, as integer weights that sum to LANE^L.

    The true bit is set with t_p / LANE and every other bit with
    t_q / LANE, independently.
    """
    dist = {}
    for bits in itertools.product((0, 1), repeat=l_zones):
        weight = 1
        for j, bit in enumerate(bits):
            on = t_p if j == zone else t_q
            weight *= on if bit else LANE - on
        dist[bits] = weight
    return dist


def hr_dist(zone: int, l_zones: int, epsilon: float) -> dict:
    """Joint distribution over (row index, reported bit), the whole report.

    The row is uniform over the padded power-of-two dimension; the matrix
    entry at column zone+1 has sign (-1)^popcount(row AND (zone+1)), which
    the client reports as that popcount's parity (0 for +1, 1 for -1),
    kept with probability e^eps/(e^eps + 1) and flipped otherwise.
    """
    dim = 1
    while dim < l_zones + 1:
        dim *= 2
    e = math.exp(epsilon)
    keep = e / (e + 1.0)
    dist = {}
    for row in range(dim):
        parity = bin(row & (zone + 1)).count("1") % 2
        dist[(row, parity)] = keep / dim
        dist[(row, 1 - parity)] = (1.0 - keep) / dim
    return dist


def cms_dist(zone: int, epsilon: float, targets, m_bits: int) -> dict:
    """Joint distribution over (hash index, bit vector) outcomes.

    targets[j][zone] is the bit position the j-th public hash sends the
    zone to; the hash index is drawn uniformly and independently of the
    zone. Each bit is randomized at budget eps/2.
    """
    k = len(targets)
    half = math.exp(epsilon / 2.0)
    p_on, q_on = half / (half + 1.0), 1.0 / (half + 1.0)
    dist = {}
    for j in range(k):
        hot = targets[j][zone]
        for bits in itertools.product((0, 1), repeat=m_bits):
            prob = 1.0 / k
            for pos, bit in enumerate(bits):
                on = p_on if pos == hot else q_on
                prob *= on if bit else 1.0 - on
            dist[(j,) + bits] = prob
    return dist


def rappor_dist(zone: int, epsilon: float, targets, k_bits: int) -> dict:
    """Joint distribution over (cohort, bit vector) outcomes.

    targets[c][zone] is the bit the zone lights in cohort c; the cohort is
    uniform and zone-independent. Bits flip with f = 2/(e^{eps/2} + 1):
    set bits survive with 1 - f/2, clear bits turn on with f/2.
    """
    m = len(targets)
    f = 2.0 / (math.exp(epsilon / 2.0) + 1.0)
    p_on, q_on = 1.0 - f / 2.0, f / 2.0
    dist = {}
    for cohort in range(m):
        hot = targets[cohort][zone]
        for bits in itertools.product((0, 1), repeat=k_bits):
            prob = 1.0 / m
            for pos, bit in enumerate(bits):
                on = p_on if pos == hot else q_on
                prob *= on if bit else 1.0 - on
            dist[(cohort,) + bits] = prob
    return dist


def laplace_density(x: float, scale: float) -> float:
    return math.exp(-abs(x) / scale) / (2.0 * scale)


def the_component_ratio_bound(epsilon: float, grid_points: int = 4001) -> float:
    """sup over x of the shifted-vs-centered noise density ratio.

    Changing the zone moves the one-hot encoding in exactly two
    components; each component's density ratio is bounded by
    e^{1/scale} = e^{eps/2}, so the report as a whole is eps-private.
    Evaluated on a wide grid; the analytic sup is attained for x >= 1.
    """
    scale = 2.0 / epsilon
    worst = 0.0
    for i in range(grid_points):
        x = -10.0 + 20.0 * i / (grid_points - 1)
        ratio = laplace_density(x - 1.0, scale) / laplace_density(x, scale)
        worst = max(worst, ratio)
    return worst
