"""Release gate: nine checks covering the privacy guarantee, estimator
correctness, utility behavior, ranking metrics, zone division, determinism,
and optional real-dataset ingestion.

Each check prints one ``[criterion N] PASS/FAIL`` line so a test log reads
as a checklist. Statistical checks run on pinned seeds whose margins were
verified when the seeds were chosen; they are deterministic here.
"""
import io
import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import ldp_enum
from zoneldp.dataio import load_fingerprints, load_schema
from zoneldp.domain import (
    MECHANISMS,
    Fingerprint,
    SENTINEL_RSSI,
    max_zone_count,
)
from zoneldp.metrics import kendall_tau_distance
from zoneldp.oracles.base import PerturbProbabilities, estimate_frequency
from zoneldp.oracles.cms import CountMeanSketch
from zoneldp.oracles.hashing import hash_bucket
from zoneldp.oracles.olh import domain_size
from zoneldp.oracles.rappor import Rappor
from zoneldp.oracles.the import ThresholdHistogramEncoding
from zoneldp.simulator import (
    CountsPopulation,
    ExperimentConfig,
    run_round,
    run_sweep,
    write_results,
)
from zoneldp.zoning import build_zone_table, lookup_zone

# the eight-zone reference population (354 users) and the same mix scaled
# to 50,000 users by largest remainder
TABLE_COUNTS_354 = (6, 9, 11, 17, 17, 81, 88, 125)
TABLE_COUNTS_50K = (848, 1271, 1554, 2401, 2401, 11441, 12429, 17655)

EPSILONS = (0.5, 1.0, 2.0)


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def _pairwise_max_ratio(dists) -> float:
    worst = 0.0
    for a, b in itertools.permutations(range(len(dists)), 2):
        worst = max(worst, ldp_enum.max_ratio(dists[a], dists[b]))
    return worst


def test_criterion_1_report_space_likelihood_ratio_bound():
    """Every mechanism's full report distribution stays within e^eps."""
    started = time.time()
    worst_seen = 0.0
    for epsilon in EPSILONS:
        bound = math.exp(epsilon) + 1e-9

        # four-zone report spaces, enumerated independently of the
        # implementation; hash tables are the shared public protocol
        g = domain_size(epsilon)
        for seed in range(20):
            buckets = [hash_bucket(seed, zone, g) for zone in range(4)]
            dists = [
                ldp_enum.olh_conditional_dist(bucket, g, epsilon)
                for bucket in buckets
            ]
            for dist in dists:
                ldp_enum.check_total(dist)
            worst_seen = max(worst_seen, _pairwise_max_ratio(dists) / math.exp(epsilon))
            assert _pairwise_max_ratio(dists) <= bound

        oue = [ldp_enum.oue_dist(zone, 4, epsilon) for zone in range(4)]
        hr = [ldp_enum.hr_dist(zone, 4, epsilon) for zone in range(4)]
        cms_targets = CountMeanSketch(
            l_zones=4, epsilon=epsilon, k=2, m=4, hash_seed=5
        ).targets.tolist()
        cms = [ldp_enum.cms_dist(zone, epsilon, cms_targets, 4) for zone in range(4)]
        rappor_targets = Rappor(
            l_zones=4, epsilon=epsilon, k=4, m=2, hash_seed=3
        ).targets.tolist()
        rappor = [
            ldp_enum.rappor_dist(zone, epsilon, rappor_targets, 4) for zone in range(4)
        ]
        for dists in (oue, hr, cms, rappor):
            for dist in dists:
                ldp_enum.check_total(dist)
            ratio = _pairwise_max_ratio(dists)
            worst_seen = max(worst_seen, ratio / math.exp(epsilon))
            assert ratio <= bound

        # noisy-histogram mechanism: the client emits its thresholded bits
        # on the lane grid, so its report space is 2^4 bit vectors with
        # integer weights, checked against e^eps exactly; the pair is the
        # one the implementation holds
        t_p, t_q = ldp_enum.the_lane_thresholds(epsilon)
        held = ThresholdHistogramEncoding(4, epsilon).probabilities()
        assert (held.p, held.q) == (t_p / ldp_enum.LANE, t_q / ldp_enum.LANE)
        the = [ldp_enum.lane_unary_dist(zone, 4, t_p, t_q) for zone in range(4)]
        for dist in the:
            assert sum(dist.values()) == ldp_enum.LANE**4
        for a, b in itertools.permutations(range(4), 2):
            for outcome, weight in the[a].items():
                assert ldp_enum.within_exp(weight, epsilon, the[b][outcome])
            ratio = ldp_enum.max_ratio(the[a], the[b])
            worst_seen = max(worst_seen, ratio / math.exp(epsilon))
        # and the closed-form pair it rounds: the per-component Laplace
        # density ratio at scale 2/eps is e^{eps/2}; two moved components
        # compose to e^eps
        per_component = math.exp(epsilon / 2.0)
        grid_sup = ldp_enum.the_component_ratio_bound(epsilon)
        assert grid_sup == pytest.approx(per_component, rel=1e-9)
        assert per_component**2 <= bound

    elapsed = time.time() - started
    _verdict(
        1,
        elapsed < 60.0,
        f"all report-space ratios within e^eps + 1e-9 "
        f"(worst/bound = {worst_seen:.9f}) in {elapsed:.1f}s",
    )


def test_criterion_2_estimator_unbiasedness_at_scale():
    """Per-zone mean raw estimate within 3 empirical SE for all mechanisms."""
    started = time.time()
    truth = np.array(TABLE_COUNTS_50K, dtype=np.float64)
    zones = np.repeat(np.arange(8), TABLE_COUNTS_50K)
    trials = 20
    worst = {}
    for mech_idx, mechanism in enumerate(MECHANISMS):
        raws = []
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([1, mech_idx, trial]))
            raws.append(run_round(zones, 8, mechanism, 2.0, rng=rng).raw)
        raws = np.array(raws)
        stderr = raws.std(axis=0, ddof=1) / math.sqrt(trials)
        deviation = np.abs(raws.mean(axis=0) - truth)
        worst[mechanism] = float(np.max(deviation / stderr))
    elapsed = time.time() - started
    detail = ", ".join(f"{m}={v:.2f}" for m, v in worst.items())
    _verdict(
        2,
        max(worst.values()) < 3.0 and elapsed < 120.0,
        f"worst |mean - truth|/SE per mechanism: {detail} in {elapsed:.1f}s",
    )


def test_criterion_3_debias_closed_form():
    """The debias step reproduces (counts - n*q)/(p - q) exactly."""
    # binary fractions make the arithmetic exact in floating point
    probs = PerturbProbabilities(p=0.75, q=0.25)
    est = estimate_frequency(np.array([30.0, 10.0, 5.0]), 48, probs)
    exact = np.array_equal(est.raw, np.array([36.0, -4.0, -14.0]))

    # identity when p=1, q=0
    ident = estimate_frequency(np.array([7.0, 0.0, 3.0]), 10, PerturbProbabilities(p=1.0, q=0.0))
    exact = exact and np.array_equal(ident.raw, np.array([7.0, 0.0, 3.0]))

    # counts sitting exactly at the noise floor n*q estimate zero
    floor = estimate_frequency(np.full(4, 25.0), 100, probs)
    exact = exact and np.array_equal(floor.raw, np.zeros(4))

    # general case against an independent evaluation of the formula
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 200, size=6).astype(np.float64)
    n = 500
    p, q = 0.6, 0.2
    est = estimate_frequency(counts, n, PerturbProbabilities(p=p, q=q))
    exact = exact and np.array_equal(est.raw, (counts - n * q) / (p - q))

    _verdict(3, exact, "hand-built count vectors debias to the closed form exactly")


def test_criterion_4_error_decreases_with_budget():
    """Mean RMSE at eps=5 is strictly below eps=0.5 for every mechanism."""
    config = ExperimentConfig(
        mechanisms=MECHANISMS,
        epsilons=(0.5, 5.0),
        trials=20,
        seed=13,
        population=CountsPopulation(counts=TABLE_COUNTS_354),
    )
    results = run_sweep(config)
    ratios = {}
    passed = True
    for mechanism in MECHANISMS:
        means = {}
        for epsilon in (0.5, 5.0):
            values = [
                r.metrics.rmse
                for r in results
                if r.mechanism == mechanism and r.epsilon == epsilon
            ]
            means[epsilon] = float(np.mean(values))
        passed = passed and means[5.0] < means[0.5]
        ratios[mechanism] = means[5.0] / means[0.5]
    detail = ", ".join(f"{m}={v:.2f}" for m, v in ratios.items())
    _verdict(4, passed, f"rmse(eps=5)/rmse(eps=0.5) per mechanism: {detail}")


def test_criterion_5_per_zone_relative_error_pattern():
    """Small zones are hit much harder than big ones at fixed budget."""
    truth = np.array(TABLE_COUNTS_354, dtype=np.float64)
    zones = np.repeat(np.arange(8), TABLE_COUNTS_354)
    trials = 100
    stats = np.zeros((trials, 8))
    for trial in range(trials):
        total = np.zeros(8)
        for mech_idx, mechanism in enumerate(MECHANISMS):
            rng = np.random.default_rng(
                np.random.SeedSequence([20260822, mech_idx, trial])
            )
            est = run_round(zones, 8, mechanism, 2.0, rng=rng)
            total += np.abs(est.rounded() - truth)
        stats[trial] = np.ceil(total / truth)
    means = stats.mean(axis=0)
    big_zones_ok = bool(np.all(means[5:] <= 2.0))
    ordering_ok = bool(means[0] > means[7])
    _verdict(
        5,
        big_zones_ok and ordering_ok,
        f"mean ceil(total diff / truth) per zone = "
        f"{np.round(means, 2).tolist()}; zones with 80+ users <= 2, "
        f"smallest zone ({means[0]:.2f}) above largest ({means[7]:.2f})",
    )


def test_criterion_6_ranking_distance_boundaries():
    """Identity -> 0, full reversal -> L(L-1)/2, brute-force equivalence."""

    def brute_force(tau1, tau2):
        position = {zone: i for i, zone in enumerate(tau2)}
        count = 0
        for i in range(len(tau1)):
            for j in range(i + 1, len(tau1)):
                if position[tau1[i]] > position[tau1[j]]:
                    count += 1
        return count

    ok = kendall_tau_distance(list(range(8)), list(range(8))) == 0
    ok = ok and kendall_tau_distance(list(range(8)), list(range(7, -1, -1))) == 28
    checked = 0
    for size in range(1, 6):
        perms = list(itertools.permutations(range(size)))
        for tau1 in perms:
            for tau2 in perms:
                if kendall_tau_distance(tau1, tau2) != brute_force(tau1, tau2):
                    ok = False
                checked += 1
    _verdict(
        6,
        ok,
        f"identity 0, eight-item reversal 28, {checked} permutation pairs "
        f"match the brute-force pair count",
    )


def test_criterion_7_zone_bound_and_self_lookup():
    """Nine APs, three strongest: at most 84 zones, training rows map home."""

    def strongest_triple(rssi):
        # independent tie rule: stronger first, lower AP id on ties
        order = np.lexsort((np.arange(9), -np.asarray(rssi)))
        sensed = [i for i in order if rssi[i] > SENTINEL_RSSI]
        return tuple(sorted(sensed[:3]))

    rng = np.random.default_rng(77)
    sets_checked = 0
    ok = True
    for _ in range(30):
        rows = []
        for i in range(40):
            rssi = rng.uniform(-100.0, -30.0, size=9)
            if i % 4 == 0:
                rssi[rng.choice(9, size=3, replace=False)] = SENTINEL_RSSI
            rows.append(Fingerprint(rssi=rssi))
        table = build_zone_table(rows, 3)
        ok = ok and table.n_zones <= max_zone_count(9, 3) == 84

        groups = {}
        for row in rows:
            groups.setdefault(strongest_triple(row.rssi), []).append(row)
        ok = ok and table.n_zones == len(groups)
        seen_zones = set()
        for members in groups.values():
            zones = {lookup_zone(table, row.rssi) for row in members}
            ok = ok and len(zones) == 1 and None not in zones
            seen_zones |= zones
        ok = ok and len(seen_zones) == len(groups)
        sets_checked += 1
    _verdict(
        7,
        ok,
        f"{sets_checked} random fingerprint sets: zone count <= 84 and every "
        f"training row looks up to its own zone",
    )


def test_criterion_8_sweeps_are_deterministic():
    """Same seed -> byte-identical results, for any worker count."""

    def render(workers):
        config = ExperimentConfig(
            mechanisms=MECHANISMS,
            epsilons=(1.0,),
            trials=2,
            seed=99,
            population=CountsPopulation(counts=(30, 20, 10)),
        )
        buffer = io.StringIO()
        write_results(run_sweep(config, workers=workers), buffer)
        return buffer.getvalue()

    first = render(workers=1)
    second = render(workers=1)
    parallel = render(workers=2)
    _verdict(
        8,
        first == second and first == parallel,
        "rerun and two-worker run both byte-identical "
        f"({len(first.splitlines())} result lines)",
    )


def test_criterion_9_real_dataset_slice():
    """Optional: a real fingerprint export parses to 36 APs and tens of zones."""
    root = Path(__file__).resolve().parents[1]
    csv_path = Path(
        os.environ.get("ZONELDP_JUINDOORLOC_CSV", root / "data" / "juindoorloc.csv")
    )
    schema_path = Path(
        os.environ.get(
            "ZONELDP_JUINDOORLOC_SCHEMA", root / "data" / "juindoorloc_schema.json"
        )
    )
    if not csv_path.exists() or not schema_path.exists():
        print(
            "[criterion 9] SKIP: dataset not present "
            f"(looked for {csv_path} and {schema_path}; set "
            "ZONELDP_JUINDOORLOC_CSV / ZONELDP_JUINDOORLOC_SCHEMA to override)"
        )
        pytest.skip("optional dataset files not present")
    schema = load_schema(schema_path)
    fingerprints = load_fingerprints(csv_path, schema)
    n_rows, n_aps = fingerprints.shape
    table = build_zone_table(fingerprints, 3)
    _verdict(
        9,
        n_aps == 36 and 10 <= table.n_zones < 100,
        f"{n_rows} rows, {n_aps} AP columns, {table.n_zones} zones",
    )
