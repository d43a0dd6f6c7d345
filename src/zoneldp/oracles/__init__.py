"""Six local-differential-privacy frequency oracles behind one contract.

Each mechanism is a perturb/aggregate pair: clients perturb a zone index
into a report; the aggregator reduces reports to debiased per-zone counts.
"""
from __future__ import annotations

import json
from dataclasses import fields
from typing import Optional

from ..domain import MECHANISMS, PrivacyParams
from ..errors import ParamMismatch
from .base import (
    CmsReport,
    FrequencyOracle,
    HrReport,
    OlhReport,
    OueReport,
    PerturbProbabilities,
    RapporReport,
    Report,
    TheReport,
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
    "Report",
    "ThresholdHistogramEncoding",
    "estimate_frequency",
    "make_mechanism",
    "report_from_dict",
    "report_to_dict",
]


def make_mechanism(
    mechanism: str,
    l_zones: int,
    epsilon: float,
    params: Optional[PrivacyParams] = None,
    *,
    cms_hash_seed: int = 0,
) -> FrequencyOracle:
    """Instantiate one mechanism; ``params`` supplies sizes and threshold
    (the defaults when None), so one params value serves a whole sweep grid.
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
            l_zones, epsilon, k=params.cms_k, m=params.cms_m, hash_seed=cms_hash_seed
        )
    return Rappor(l_zones, epsilon, k=params.rappor_k, m=params.rappor_m)


# --- wire format ----------------------------------------------------------
# One report per JSON line: {"mech": "...", "payload": {field: value, ...}}

_REPORT_TYPES = {
    "OLH": OlhReport,
    "OUE": OueReport,
    "THE": TheReport,
    "HR": HrReport,
    "CMS": CmsReport,
    "RAPPOR": RapporReport,
}

_REPORT_NAMES = {cls: name for name, cls in _REPORT_TYPES.items()}


def report_to_dict(report: Report) -> dict:
    name = _REPORT_NAMES[type(report)]
    payload = {
        field: list(value) if isinstance(value, tuple) else value
        for field, value in vars(report).items()
    }
    return {"mech": name, "payload": payload}


def report_from_dict(data: dict) -> Report:
    """Inverse of report_to_dict; ParamMismatch names an unknown ``mech``
    tag or payload keys that are not the report's fields."""
    tag, payload = data["mech"], data["payload"]
    if tag not in _REPORT_TYPES:
        raise ParamMismatch(f"unknown report tag {tag!r}; expected one of {MECHANISMS}")
    cls = _REPORT_TYPES[tag]
    names = [f.name for f in fields(cls)]
    if sorted(payload) != sorted(names):
        raise ParamMismatch(f"{tag} report fields are {names}, got {sorted(payload)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()})


def write_reports(reports, fh) -> None:
    """Serialize reports as JSON lines to an open text handle."""
    for report in reports:
        fh.write(json.dumps(report_to_dict(report)) + "\n")


def read_reports(fh):
    """Parse reports from JSON lines; yields report objects."""
    for line in fh:
        line = line.strip()
        if line:
            yield report_from_dict(json.loads(line))
