"""Privacy-preserving indoor crowd counting.

The pipeline: divide an indoor space into zones by each location's
strongest access points, let every user perturb their own zone membership
with a local-differential-privacy frequency oracle, and estimate per-zone
populations from the perturbed reports alone. Includes six mechanisms,
evaluation metrics, a seeded experiment runner, and dataset loaders.
"""
from .dataio import load_fingerprints, load_schema, synth_population
from .domain import (
    MECHANISMS,
    SENTINEL_RSSI,
    Fingerprint,
    FrequencyEstimate,
    PrivacyParams,
    max_zone_count,
)
from .metrics import (
    MetricReport,
    kendall_tau_distance,
    metric_report,
    nrmse,
    rank_zones,
    rmse,
)
from .oracles import (
    CountMeanSketch,
    FrequencyOracle,
    HadamardResponse,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
    PerturbProbabilities,
    Rappor,
    ThresholdHistogramEncoding,
    estimate_frequency,
    make_mechanism,
)
from .simulator import (
    CountsPopulation,
    ExperimentConfig,
    LookupPopulation,
    TrialResult,
    run_round,
    run_sweep,
    summarize,
)
from .zoning import ZoneTable, build_zone_table, lookup_zone, strongest_aps

__version__ = "0.1.0"

__all__ = [
    "MECHANISMS",
    "SENTINEL_RSSI",
    "CountMeanSketch",
    "CountsPopulation",
    "ExperimentConfig",
    "Fingerprint",
    "FrequencyEstimate",
    "FrequencyOracle",
    "HadamardResponse",
    "LookupPopulation",
    "MetricReport",
    "OptimizedLocalHashing",
    "OptimizedUnaryEncoding",
    "PerturbProbabilities",
    "PrivacyParams",
    "Rappor",
    "ThresholdHistogramEncoding",
    "TrialResult",
    "ZoneTable",
    "build_zone_table",
    "estimate_frequency",
    "kendall_tau_distance",
    "load_fingerprints",
    "load_schema",
    "lookup_zone",
    "make_mechanism",
    "max_zone_count",
    "metric_report",
    "nrmse",
    "rank_zones",
    "rmse",
    "run_round",
    "run_sweep",
    "strongest_aps",
    "summarize",
    "synth_population",
]
