"""Seeded Monte-Carlo experiment runner.

One round = one population of users, each privately mapped to a zone,
perturbed by one mechanism at one privacy level, aggregated once. A sweep
repeats rounds over a (mechanism x epsilon x trial) grid with one derived
PRNG stream per round, so results are reproducible bit for bit regardless
of execution order or worker count.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .domain import (
    MECHANISMS,
    FrequencyEstimate,
    PrivacyParams,
    ZoneTable,
    _is_int,
    _is_real,
    rssi_matrix,
)
from .errors import ConfigError, DataError, DegenerateProbabilities
from .metrics import MetricReport, metric_report
from .oracles import make_mechanism
from .oracles.base import ReportBatch
from .zoning import assign_zones

# stream tags keep population synthesis and rounds on disjoint substreams
_POPULATION_TAG = 0
_ROUND_TAG = 1

# 63-bit bound keeps derived hash seeds JSON-exact
_SEED_BOUND = 1 << 63


@dataclass(frozen=True)
class DropCounts:
    """Users excluded before aggregation, by cause."""

    insufficient_signals: int = 0
    unmatched: int = 0

    @property
    def total(self) -> int:
        return self.insufficient_signals + self.unmatched


def _items(value, name: str) -> tuple:
    """The items of a list or tuple; ConfigError for anything else,
    strings included."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class CountsPopulation:
    """Population given directly as per-zone counts."""

    counts: Tuple[int, ...]

    def __post_init__(self):
        counts = _items(self.counts, "counts")
        if not counts or not all(_is_int(c) and c >= 0 for c in counts):
            raise ConfigError("counts must be nonempty and nonnegative integers")
        if sum(counts) < 1:
            raise ConfigError("population must have at least one user")
        object.__setattr__(self, "counts", tuple(int(c) for c in counts))

    def resolve(self, rng: np.random.Generator):
        from .dataio import synth_population

        zones = synth_population(self.counts, rng)
        return zones, len(self.counts), DropCounts()


@dataclass(frozen=True)
class LookupPopulation:
    """Population given as fingerprints, an RSSI matrix or a sequence of
    ``Fingerprint``, mapped through a zone table; holds them as the
    read-only (n, APs) matrix (ValueError unless of the table's width)."""

    fingerprints: np.ndarray
    table: ZoneTable

    def __post_init__(self):
        matrix = rssi_matrix(self.fingerprints, self.table.ap_count)
        object.__setattr__(self, "fingerprints", matrix)

    def resolve(self, rng: np.random.Generator):
        zones, insufficient, unmatched = assign_zones(self.table, self.fingerprints)
        return (
            zones,
            self.table.n_zones,
            DropCounts(insufficient_signals=insufficient, unmatched=unmatched),
        )


PopulationSource = Union[CountsPopulation, LookupPopulation]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep; everything downstream derives from it."""

    mechanisms: Tuple[str, ...]
    epsilons: Tuple[float, ...]
    trials: int
    seed: int
    population: PopulationSource
    params: Optional[PrivacyParams] = field(default_factory=PrivacyParams)

    def __post_init__(self):
        """Checks every field once, coercing nothing: ConfigError unless the
        grid axes are nonempty lists of known mechanisms and of finite
        positive reals, every mechanism can randomize at every budget (its
        pair, on the 2^-16 lane grid for OUE, CMS and RAPPOR, keeps p above
        q), trials is an integer >= 1 and seed one >= 0."""
        mechanisms = _items(self.mechanisms, "mechanisms")
        if not mechanisms:
            raise ConfigError("mechanisms must be nonempty")
        unknown = [m for m in mechanisms if m not in MECHANISMS]
        if unknown:
            raise ConfigError(f"unknown mechanisms {unknown}; expected {MECHANISMS}")
        epsilons = _items(self.epsilons, "epsilons")
        if not epsilons or not all(_is_real(e) and 0 < e < math.inf for e in epsilons):
            raise ConfigError(f"epsilons must be finite positive reals, got {epsilons!r}")
        for mechanism in mechanisms:
            for epsilon in epsilons:
                try:  # the pair a round of it would build
                    make_mechanism(mechanism, 1, float(epsilon), self.params)
                except DegenerateProbabilities as exc:
                    raise ConfigError(
                        f"{mechanism} cannot randomize at epsilon {epsilon!r}: {exc}"
                    ) from None
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "mechanisms", mechanisms)
        object.__setattr__(self, "epsilons", tuple(float(e) for e in epsilons))


@dataclass(frozen=True)
class TrialResult:
    mechanism: str
    epsilon: float
    trial: int
    true_counts: np.ndarray
    estimate: FrequencyEstimate
    metrics: MetricReport
    diagnostics: DropCounts


def run_round(
    users: Sequence[int],
    l_zones: int,
    mechanism: str,
    epsilon: float,
    params: Optional[PrivacyParams] = None,
    rng: Optional[np.random.Generator] = None,
    collect_reports: Optional[Callable[[ReportBatch], None]] = None,
) -> FrequencyEstimate:
    """Perturb every user's zone, reduce the reports a chunk at a time and
    aggregate their summed statistic once.

    The hash family of a sketch (CMS or RAPPOR) is drawn from ``rng`` first,
    so repeated rounds average over families; everything else about the
    round is a deterministic function of (inputs, rng state), the same as
    one ``perturb_batch`` over all users followed by ``aggregate``. At most
    one chunk of reports (``perturb_chunks``) is held at a time.

    ``collect_reports``: pass a function to also receive the reports, once
    per chunk and in user order, the same ones that are reduced, so asking
    for a trace never changes the estimate. It is not called when there
    are no users.
    """
    if rng is None:
        rng = np.random.default_rng()
    users = np.asarray(users, dtype=np.int64)
    kwargs = {}
    if mechanism in ("CMS", "RAPPOR"):
        kwargs["hash_seed"] = int(rng.integers(0, _SEED_BOUND))
    oracle = make_mechanism(mechanism, l_zones, epsilon, params, **kwargs)
    if users.size == 0:
        return FrequencyEstimate.from_raw(np.zeros(l_zones), 0)
    # the sum starts from the first chunk's: a zero statistic to add into
    # would be one more cohorts x width array a RAPPOR round allocates
    stats = None
    for batch in oracle.perturb_chunks(users, rng):
        if collect_reports is not None:
            collect_reports(batch)
        reduced = oracle.reduce(batch)
        del batch  # so the next chunk is drawn with this one freed
        stats = reduced if stats is None else stats + reduced
    return oracle.aggregate(stats)


def resolve_population(config: ExperimentConfig):
    """The sweep's users as (zones, l_zones, drops), from the population stream."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _POPULATION_TAG]))
    return config.population.resolve(rng)


def run_trial(
    config: ExperimentConfig,
    mech_idx: int,
    eps_idx: int,
    trial: int,
    zones: np.ndarray,
    l_zones: int,
    drops: DropCounts,
    collect_reports: Optional[Callable[[ReportBatch], None]] = None,
) -> TrialResult:
    """One round of the grid on the stream keyed by its grid position.

    ``collect_reports`` is passed through to ``run_round``.
    """
    mechanism = config.mechanisms[mech_idx]
    epsilon = config.epsilons[eps_idx]
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, _ROUND_TAG, mech_idx, eps_idx, trial])
    )
    estimate = run_round(
        zones, l_zones, mechanism, epsilon, config.params, rng, collect_reports
    )
    true_counts = np.bincount(zones, minlength=l_zones).astype(np.int64)
    return TrialResult(
        mechanism=mechanism,
        epsilon=epsilon,
        trial=trial,
        true_counts=true_counts,
        estimate=estimate,
        metrics=metric_report(true_counts, estimate.raw),
        diagnostics=drops,
    )


def _run_cell(
    config: ExperimentConfig,
    mech_idx: int,
    eps_idx: int,
    zones: np.ndarray,
    l_zones: int,
    drops: DropCounts,
) -> List[TrialResult]:
    return [
        run_trial(config, mech_idx, eps_idx, trial, zones, l_zones, drops)
        for trial in range(config.trials)
    ]


def run_sweep(config: ExperimentConfig, workers: int = 1) -> List[TrialResult]:
    """Run the whole (mechanism x epsilon x trial) grid.

    Results come back in grid order (mechanisms outer, epsilons inner,
    trials innermost) and are identical for any ``workers`` value: every
    round's PRNG stream is keyed by its grid position, never by schedule.
    Each (mechanism, epsilon) cell is one task, so at most one worker
    process per cell is started; with one, the grid runs in this process.
    A task carries the resolved zones, not the population they came from.
    """
    if not (_is_int(workers) and workers >= 1):
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    zones, l_zones, drops = resolve_population(config)
    cells = [
        (mi, ei)
        for mi in range(len(config.mechanisms))
        for ei in range(len(config.epsilons))
    ]
    workers = min(workers, len(cells))
    if workers == 1:
        chunks = [_run_cell(config, mi, ei, zones, l_zones, drops) for mi, ei in cells]
    else:
        # imported here, so that importing the package loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        grid = replace(config, population=None)  # cells never read it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_cell, grid, mi, ei, zones, l_zones, drops)
                for mi, ei in cells
            ]
            chunks = [f.result() for f in futures]  # canonical cell order
    return [result for chunk in chunks for result in chunk]


# --- summaries ------------------------------------------------------------


@dataclass(frozen=True)
class MetricRow:
    mechanism: str
    epsilon: float
    metric: str
    mean: float
    median: float
    q1: float
    q3: float


@dataclass(frozen=True)
class ZoneRow:
    epsilon: float
    zone: int
    true_count: int
    abs_diff_sum: float
    rel_error_ceil: int


@dataclass(frozen=True)
class Summary:
    metric_rows: Tuple[MetricRow, ...]
    zone_rows: Tuple[ZoneRow, ...]


def _metric_values(results: List[TrialResult], name: str) -> List[float]:
    values = [getattr(r.metrics, name) for r in results]
    return [float(v) for v in values if v is not None]


def summarize(results: Sequence[TrialResult]) -> Summary:
    """Per-(mechanism, epsilon) metric statistics plus per-zone error rates.

    The zone table is only emitted when every result shares the same true
    counts (one fixed population). Its ``rel_error_ceil`` is
    ceil(sum over mechanisms of mean |rounded - true| / true) per zone;
    zones with zero truth are skipped.
    """
    if not results:
        raise ValueError("no results to summarize")

    def cell_key(r: TrialResult):
        mech_rank = (
            MECHANISMS.index(r.mechanism)
            if r.mechanism in MECHANISMS
            else len(MECHANISMS)
        )
        return (mech_rank, r.epsilon)

    cells: dict = {}
    for r in results:
        cells.setdefault(cell_key(r), []).append(r)

    metric_rows = []
    for key in sorted(cells):
        group = cells[key]
        mechanism = group[0].mechanism
        epsilon = group[0].epsilon
        for metric in ("rmse", "nrmse", "kendall_tau"):
            values = _metric_values(group, metric)
            if values:
                arr = np.asarray(values)
                q1, med, q3 = np.percentile(arr, [25, 50, 75])
                row = MetricRow(
                    mechanism, epsilon, metric, float(arr.mean()),
                    float(med), float(q1), float(q3),
                )
            else:
                nan = float("nan")
                row = MetricRow(mechanism, epsilon, metric, nan, nan, nan, nan)
            metric_rows.append(row)

    zone_rows = []
    reference = results[0].true_counts
    if all(np.array_equal(r.true_counts, reference) for r in results):
        epsilons = sorted({r.epsilon for r in results})
        for epsilon in epsilons:
            at_eps = [r for r in results if r.epsilon == epsilon]
            mechanisms = sorted(
                {r.mechanism for r in at_eps},
                key=lambda m: MECHANISMS.index(m) if m in MECHANISMS else len(MECHANISMS),
            )
            per_mech_diff = []
            for mechanism in mechanisms:
                group = [r for r in at_eps if r.mechanism == mechanism]
                diffs = np.stack(
                    [r.estimate.rounded() - r.true_counts for r in group]
                )
                per_mech_diff.append(np.abs(diffs).mean(axis=0))
            total = np.sum(per_mech_diff, axis=0)
            for zone, true in enumerate(reference):
                if true <= 0:
                    continue
                zone_rows.append(
                    ZoneRow(
                        epsilon=epsilon,
                        zone=zone,
                        true_count=int(true),
                        abs_diff_sum=float(total[zone]),
                        rel_error_ceil=int(math.ceil(total[zone] / true)),
                    )
                )
    return Summary(metric_rows=tuple(metric_rows), zone_rows=tuple(zone_rows))


def summary_to_csv(summary: Summary) -> str:
    lines = ["mechanism,epsilon,metric,mean,median,q1,q3"]
    for row in summary.metric_rows:
        lines.append(
            f"{row.mechanism},{row.epsilon:g},{row.metric},"
            f"{row.mean:.6f},{row.median:.6f},{row.q1:.6f},{row.q3:.6f}"
        )
    return "\n".join(lines) + "\n"


def zone_stats_to_csv(summary: Summary) -> str:
    lines = ["epsilon,zone,true_count,abs_diff_sum,rel_error_ceil"]
    for row in summary.zone_rows:
        lines.append(
            f"{row.epsilon:g},{row.zone},{row.true_count},"
            f"{row.abs_diff_sum:.6f},{row.rel_error_ceil}"
        )
    return "\n".join(lines) + "\n"


# --- result (de)serialization ---------------------------------------------


def trial_result_to_dict(result: TrialResult) -> dict:
    return {
        "mechanism": result.mechanism,
        "epsilon": result.epsilon,
        "trial": result.trial,
        "true_counts": [int(c) for c in result.true_counts],
        "raw": [float(v) for v in result.estimate.raw],
        "clamped": [float(v) for v in result.estimate.clamped],
        "rounded": [int(v) for v in result.estimate.rounded()],
        "n_reports": result.estimate.n_reports,
        "metrics": {
            "rmse": result.metrics.rmse,
            "nrmse": result.metrics.nrmse,
            "kendall_tau": result.metrics.kendall_tau,
        },
        "diagnostics": {
            "insufficient_signals": result.diagnostics.insufficient_signals,
            "unmatched": result.diagnostics.unmatched,
        },
    }


def trial_result_from_dict(data: dict) -> TrialResult:
    metrics = data["metrics"]
    diag = data["diagnostics"]
    return TrialResult(
        mechanism=data["mechanism"],
        epsilon=float(data["epsilon"]),
        trial=int(data["trial"]),
        true_counts=np.asarray(data["true_counts"], dtype=np.int64),
        estimate=FrequencyEstimate.from_raw(
            np.asarray(data["raw"], dtype=np.float64), int(data["n_reports"])
        ),
        metrics=MetricReport(
            rmse=float(metrics["rmse"]),
            nrmse=None if metrics["nrmse"] is None else float(metrics["nrmse"]),
            kendall_tau=int(metrics["kendall_tau"]),
        ),
        diagnostics=DropCounts(
            insufficient_signals=int(diag["insufficient_signals"]),
            unmatched=int(diag["unmatched"]),
        ),
    )


def write_results(results: Sequence[TrialResult], fh) -> None:
    for result in results:
        fh.write(json.dumps(trial_result_to_dict(result)) + "\n")


def read_results(fh) -> List[TrialResult]:
    """The results of a JSON-lines file; DataError, naming the line, for a
    line that is not a trial result."""
    out = []
    for number, line in enumerate(fh, start=1):
        try:
            if line.strip():
                out.append(trial_result_from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"line {number} is not a trial result: {exc!r}") from exc
    return out
