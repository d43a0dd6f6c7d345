"""The three benchmark workloads: seeded inputs and one timed pass each.

Every workload is a closed loop in one process: one caller, ``workers=1``,
and each round starts after the previous one returns. A pass is the
workload's fixed work; passes in one run repeat identical work, so their
times can be compared and their count metrics repeat exactly.

Input generation (``__init__``) is the benchmark's own cost and is never
timed. ``setup`` is the program's set-up before the first round and
counts toward ``setup_s``. ``run_pass`` is timed as ``wall_s``.
``rounds`` turns a pass's outputs into the records the checks read.
"""
from __future__ import annotations

import contextlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from zoneldp import cli, metrics, simulator, zoning
from zoneldp.domain import MECHANISMS, SENTINEL_RSSI, Fingerprint

# the paper's eight-zone reference crowd, and the same mix scaled to 50,000
# users by largest remainder
PAPER_COUNTS = (6, 9, 11, 17, 17, 81, 88, 125)
CROWD_COUNTS = (848, 1271, 1554, 2401, 2401, 11441, 12429, 17655)
EPSILONS = (0.5, 1.0, 2.0)


@dataclass
class Round:
    """What one round returned, as the output checks see it.

    ``raw`` is None when the round raised; ``error`` then says why.
    ``expected_reports`` is the number of users that reached aggregation.
    """

    mechanism: str
    epsilon: float
    true_counts: np.ndarray
    raw: Optional[np.ndarray]
    n_reports: int
    expected_reports: int
    error: str = ""


def _error_text() -> str:
    return traceback.format_exc(limit=-1).strip().splitlines()[-1]


class PaperGrid:
    """Reference sweep through the CLI, all six mechanisms x 3 eps x 20 trials."""

    name = "paper_grid"
    why = (
        "354 users make each round almost free, so per-round fixed costs, "
        "the CLI and serialization set the time"
    )

    def __init__(self, seed: int, out_dir: Path, trials: int = 20):
        self.seed = int(seed)
        self.trials = int(trials)
        self.mechanisms = MECHANISMS
        self.out_dir = Path(out_dir) / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_dir / "config.json"
        self.result_dir = self.out_dir / "out"
        self.config = {
            "mechanisms": list(self.mechanisms),
            "epsilons": list(EPSILONS),
            "trials": self.trials,
            "seed": self.seed,
            "workers": 1,
            "population": {"counts": list(PAPER_COUNTS)},
        }
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.output_files = tuple(
            self.result_dir / name
            for name in ("results.jsonl", "summary.csv", "zone_stats.csv")
        )

    @property
    def rounds_per_pass(self) -> int:
        return len(self.mechanisms) * len(EPSILONS) * self.trials

    def sizes(self) -> dict:
        return {"users": sum(PAPER_COUNTS), "zones": len(PAPER_COUNTS),
                "rounds": self.rounds_per_pass, "trials": self.trials}

    def setup(self) -> None:
        """The CLI has no set-up of its own before the first round."""

    def run_pass(self):
        for path in self.output_files:
            path.unlink(missing_ok=True)
        argv = ["sweep", "--config", str(self.config_path),
                "--out", str(self.result_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def rounds(self, exit_code) -> List[Round]:
        if exit_code != 0:
            raise RuntimeError(f"zoneldp sweep exited with {exit_code}")
        missing = [p.name for p in self.output_files if not p.is_file()]
        if missing:
            raise RuntimeError(f"zoneldp sweep did not write {missing}")
        out = []
        with open(self.output_files[0], encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                true_counts = np.asarray(row["true_counts"], dtype=np.int64)
                out.append(Round(
                    mechanism=row["mechanism"],
                    epsilon=float(row["epsilon"]),
                    true_counts=true_counts,
                    raw=np.asarray(row["raw"], dtype=np.float64),
                    n_reports=int(row["n_reports"]),
                    expected_reports=int(true_counts.sum()),
                ))
        return out

    def cells(self, rounds: List[Round]) -> List[List[Round]]:
        return _group_cells(rounds)


class Crowd50k:
    """The reference mix scaled to 50,000 users, run_sweep then summarize."""

    name = "crowd_50k"
    why = (
        "50,000 users at L=8: per-user randomization dominates and the "
        "decoders are negligible"
    )

    # one trial per pass, so that a run holds a dozen passes to take the
    # median of; a pass is still every (mechanism, eps) cell
    trials = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = int(seed)
        self.config = simulator.ExperimentConfig(
            mechanisms=MECHANISMS,
            epsilons=EPSILONS,
            trials=self.trials,
            seed=self.seed,
            population=simulator.CountsPopulation(counts=CROWD_COUNTS),
        )

    @property
    def rounds_per_pass(self) -> int:
        return len(MECHANISMS) * len(EPSILONS) * self.trials

    def sizes(self) -> dict:
        return {"users": sum(CROWD_COUNTS), "zones": len(CROWD_COUNTS),
                "rounds": self.rounds_per_pass, "trials": self.trials}

    def setup(self) -> None:
        """run_sweep has no set-up of its own before the first round."""

    def run_pass(self):
        results = simulator.run_sweep(self.config, workers=1)
        simulator.summarize(results)
        return results

    def rounds(self, results) -> List[Round]:
        return [
            Round(
                mechanism=r.mechanism,
                epsilon=r.epsilon,
                true_counts=np.asarray(r.true_counts),
                raw=np.asarray(r.estimate.raw, dtype=np.float64),
                n_reports=int(r.estimate.n_reports),
                expected_reports=int(np.sum(r.true_counts)),
            )
            for r in results
        ]

    def cells(self, rounds: List[Round]) -> List[List[Round]]:
        return _group_cells(rounds)


def _group_cells(rounds: List[Round]) -> List[List[Round]]:
    cells: dict = {}
    for r in rounds:
        cells.setdefault((r.mechanism, r.epsilon), []).append(r)
    return list(cells.values())


# --- venue_live -------------------------------------------------------------

VENUE_SIDE_M = 120.0
VENUE_AP_GRID = (6, 4)  # 24 APs, one placed uniformly in each grid cell
VENUE_TX_DBM = -40.0  # received strength at 1 m
VENUE_PATH_LOSS_EXP = 2.1
VENUE_SHADOWING_DB = 4.0
VENUE_SENSITIVITY_DBM = -95.0
VENUE_M = 3
VENUE_SURVEY_POINTS = 1500
VENUE_EPSILON = 1.0
# Decoder cost grows with L (RAPPOR's as L^2), so the generator redraws the
# layout until the survey has L in this range; seeds then differ in layout
# and crowds but not in how much work a window is.
VENUE_ZONE_RANGE = (365, 375)
VENUE_MAX_DRAWS = 500


def strongest_sets(rssi: np.ndarray, m: int) -> np.ndarray:
    """Each row's m strongest AP ids, ascending (continuous RSSI has no ties)."""
    return np.sort(np.argsort(-rssi, axis=1, kind="stable")[:, :m], axis=1)


def distinct_strongest_sets(rssi: np.ndarray, m: int) -> int:
    """Number of distinct m-strongest AP sets among the RSSI rows."""
    return len(np.unique(strongest_sets(rssi, m), axis=0))


def reference_lookup(table, rssi: np.ndarray):
    """(true counts, users matched) from a lookup independent of zoning.py."""
    sensed = np.count_nonzero(rssi > SENTINEL_RSSI, axis=1) >= table.strongest_count
    zones = [table.entries.get(frozenset(row.tolist()))
             for row in strongest_sets(rssi[sensed], table.strongest_count)]
    matched = np.array([z for z in zones if z is not None], dtype=np.int64)
    return np.bincount(matched, minlength=table.n_zones), matched.size


class Venue:
    """A synthetic floor: AP positions, a log-distance radio model, a survey."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7]))
        gx, gy = VENUE_AP_GRID
        cx, cy = np.meshgrid(np.arange(gx), np.arange(gy))
        cells = np.stack([cx.ravel(), cy.ravel()], axis=1).astype(np.float64)
        lo, hi = VENUE_ZONE_RANGE
        for _ in range(VENUE_MAX_DRAWS):
            jitter = self.rng.uniform(0.0, 1.0, size=cells.shape)
            self.aps = (cells + jitter) * [VENUE_SIDE_M / gx, VENUE_SIDE_M / gy]
            self.survey = self.rssi(VENUE_SURVEY_POINTS)
            if lo <= distinct_strongest_sets(self.survey, VENUE_M) <= hi:
                return
        raise RuntimeError(f"no venue with {lo}-{hi} zones in {VENUE_MAX_DRAWS} draws")

    def rssi(self, n_points: int) -> np.ndarray:
        """RSSI rows for points uniform on the floor, fresh shadowing each."""
        points = self.rng.uniform(0.0, VENUE_SIDE_M, size=(n_points, 2))
        dist = np.sqrt(((points[:, None, :] - self.aps[None, :, :]) ** 2).sum(-1))
        dist = np.maximum(dist, 1.0)
        level = (VENUE_TX_DBM - 10.0 * VENUE_PATH_LOSS_EXP * np.log10(dist)
                 + self.rng.normal(0.0, VENUE_SHADOWING_DB, size=dist.shape))
        return np.where(level >= VENUE_SENSITIVITY_DBM, level, SENTINEL_RSSI)


class VenueLive:
    """Live counting: each window is a fresh crowd, looked up, then one round."""

    name = "venue_live"
    why = (
        "hundreds of zones and a zone lookup in every window expose lookup "
        "and decoders that grow with L"
    )

    def __init__(self, seed: int, out_dir: Path, users: int = 20000,
                 windows: int = len(MECHANISMS)):
        self.seed = int(seed)
        self.users = int(users)
        venue = Venue(self.seed)
        self.survey = [Fingerprint(rssi=row) for row in venue.survey]
        self.windows = [
            (MECHANISMS[w % len(MECHANISMS)],
             tuple(Fingerprint(rssi=row) for row in venue.rssi(self.users)))
            for w in range(int(windows))
        ]
        self.table = None
        self.on_window = None  # called before each window; the tracer sets it
        self._reference = (None, None)  # (table, per-window reference_lookup)

    @property
    def rounds_per_pass(self) -> int:
        return len(self.windows)

    def sizes(self) -> dict:
        return {"users": self.users, "zones": self.table.n_zones if self.table else None,
                "rounds": self.rounds_per_pass, "survey_points": VENUE_SURVEY_POINTS,
                "aps": int(np.prod(VENUE_AP_GRID)), "m": VENUE_M}

    def setup(self) -> None:
        self.table = zoning.build_zone_table(self.survey, VENUE_M)

    def run_pass(self) -> List[Round]:
        out = []
        l_zones = self.table.n_zones
        for window, (mechanism, fingerprints) in enumerate(self.windows):
            if self.on_window is not None:
                self.on_window()
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1, window]))
            true_counts = None
            try:
                zones, insufficient, unmatched = zoning.assign_zones(
                    self.table, fingerprints
                )
                true_counts = np.bincount(zones, minlength=l_zones)
                estimate = simulator.run_round(
                    zones, l_zones, mechanism, VENUE_EPSILON, rng=rng
                )
                metrics.metric_report(true_counts, estimate.raw)
            except Exception:  # a failing window is counted, the stream goes on
                out.append(Round(mechanism, VENUE_EPSILON, true_counts, None, 0, 0,
                                 error=_error_text()))
                continue
            out.append(Round(
                mechanism=mechanism,
                epsilon=VENUE_EPSILON,
                true_counts=true_counts,
                raw=np.asarray(estimate.raw, dtype=np.float64),
                n_reports=int(estimate.n_reports),
                expected_reports=len(fingerprints) - insufficient - unmatched,
            ))
        return out

    def rounds(self, out: List[Round]) -> List[Round]:
        """Marks windows whose lookup disagrees with ``reference_lookup``."""
        if self._reference[0] is not self.table:
            self._reference = (self.table, [
                reference_lookup(self.table, np.stack([fp.rssi for fp in fps]))
                for _, fps in self.windows
            ])
        for r, (counts, matched) in zip(out, self._reference[1]):
            if not r.error and (r.expected_reports != matched
                                or not np.array_equal(r.true_counts, counts)):
                r.error = "zone lookup disagrees with the reference lookup"
        return out

    def cells(self, rounds: List[Round]) -> List[List[Round]]:
        return [[r] for r in rounds]


WORKLOADS = {w.name: w for w in (PaperGrid, Crowd50k, VenueLive)}
