#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the repository root::

    python3 benchmarks/selftest.py

It checks, in order:

1. the same seed gives the same inputs, and another seed other inputs;
2. the venue_live zone table lands in its stated zone range on seeds 0-4;
3. an injected NaN estimate, a round that raises, a wrong ``n_reports``,
   a misplaced user and a biased estimate are counted as failed rounds and
   do not stop the run;
4. paper_grid run twice at one seed writes byte-identical
   ``results.jsonl`` and ``summary.csv``, and ``run_sweep(workers=2)``
   returns the same results as ``workers=1``; this is the only place the
   benchmark starts a process pool, because pool timings on two shared
   cores are too noisy to compare;
5. BENCHMARK.json names these workloads, and a run prints exactly the
   metric names it declares;
6. every count metric is identical across two traced runs of each workload.

Prints one line per check and exits 1 if any fails. Takes about a minute.
"""
from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._load_library()

import numpy as np  # noqa: E402

from checks import check_cell, check_pass, round_variance  # noqa: E402
from workloads import (  # noqa: E402
    PAPER_COUNTS,
    WORKLOADS,
    VENUE_ZONE_RANGE,
    Crowd50k,
    PaperGrid,
    VenueLive,
)
from zoneldp import oracles, simulator, zoning  # noqa: E402
from zoneldp.domain import FrequencyEstimate  # noqa: E402

OUT = run.OUT / "selftest"
FAILURES = []


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def _venue_arrays(venue: VenueLive) -> list:
    rows = [np.stack([fp.rssi for fp in venue.survey])]
    rows += [np.stack([fp.rssi for fp in fps]) for _, fps in venue.windows]
    return rows


def check_generators() -> None:
    a, b, c = (VenueLive(s, OUT, users=500, windows=2) for s in (11, 11, 12))
    same = all(np.array_equal(x, y) for x, y in zip(_venue_arrays(a), _venue_arrays(b)))
    differ = not np.array_equal(_venue_arrays(a)[1], _venue_arrays(c)[1])
    verdict("venue_live inputs repeat at one seed and change with it", same and differ)
    verdict("crowd_50k inputs repeat at one seed",
            Crowd50k(11, OUT).config == Crowd50k(11, OUT).config)
    verdict("paper_grid inputs repeat at one seed",
            PaperGrid(11, OUT).config == PaperGrid(11, OUT / "again").config)


def check_zone_range() -> None:
    lo, hi = VENUE_ZONE_RANGE
    zones = []
    for seed in range(5):
        venue = VenueLive(seed, OUT, users=10, windows=1)
        venue.setup()
        zones.append(venue.table.n_zones)
    verdict(f"venue_live tables have {lo}-{hi} zones on seeds 0-4",
            all(lo <= z <= hi for z in zones), f"zones {zones}")


@contextlib.contextmanager
def _patched_aggregate(mechanism: str, replacement):
    cls = type(oracles.make_mechanism(mechanism, 8, 1.0))
    original = cls.__dict__["aggregate"]
    cls.aggregate = replacement
    try:
        yield
    finally:
        cls.aggregate = original


def _nan_aggregate(self, reports):
    est = object.__new__(FrequencyEstimate)  # bypasses the finite-value check
    nan = np.full(self.l_zones, np.nan)
    object.__setattr__(est, "raw", nan)
    object.__setattr__(est, "clamped", nan)
    object.__setattr__(est, "n_reports", int(reports.n_reports))
    return est


def _raising_aggregate(self, reports):
    raise RuntimeError("injected failure")


def _one_pass(workload):
    tally = run.Tally()
    _, output, error = run.timed_pass(workload)
    tally.add_pass(workload, output, error)
    return tally


def check_failures_counted() -> None:
    grid = PaperGrid(4, OUT / "inject", trials=3)
    venue = VenueLive(4, OUT, users=2000)
    venue.setup()
    clean = [_one_pass(w) for w in (grid, venue)]
    verdict("clean passes have no failed rounds",
            all(t.failed == 0 for t in clean), str([t.problems for t in clean]))
    with _patched_aggregate("OUE", _nan_aggregate), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rounding NaN counts
        g, v = _one_pass(grid), _one_pass(venue)
    verdict("a NaN estimate fails its rounds and the run goes on",
            (g.failed, g.attempted, v.failed, v.attempted) == (9, 54, 1, 6),
            f"paper_grid {g.failed}/{g.attempted}, venue_live {v.failed}/{v.attempted}")
    with _patched_aggregate("HR", _raising_aggregate):
        g, v = _one_pass(grid), _one_pass(venue)
    verdict("a round that raises is failed and the run goes on",
            (g.failed, g.attempted, v.failed, v.attempted) == (54, 54, 1, 6),
            f"paper_grid {g.failed}/{g.attempted}, venue_live {v.failed}/{v.attempted}")
    cell = [r for r in grid.rounds(grid.run_pass()) if r.mechanism == "OUE"][:3]
    shift = 10 * np.sqrt(round_variance("OUE", cell[0].epsilon, cell[0].true_counts))
    unbiased = check_cell(cell)
    for r in cell:
        r.raw = r.raw + shift
    verdict("a biased estimate fails its cell", not unbiased and bool(check_cell(cell)))

    bad = venue.run_pass()
    bad[0].n_reports += 1
    verdict("a wrong n_reports fails its round", check_pass(venue, bad)[1] == 1)

    original = zoning.assign_zones

    def misplacing(table, fingerprints):
        zones, insufficient, unmatched = original(table, fingerprints)
        zones[0] = (zones[0] + 1) % table.n_zones
        return zones, insufficient, unmatched

    zoning.assign_zones = misplacing
    try:
        v = _one_pass(venue)
    finally:
        zoning.assign_zones = original
    verdict("a misplaced user fails its window's round", v.failed == 6,
            f"{v.failed}/{v.attempted}")


def check_determinism() -> None:
    grid = PaperGrid(5, OUT / "determinism")
    outputs = []
    for _ in range(2):
        if grid.run_pass() != 0:
            verdict("paper_grid sweep exits 0", False)
            return
        outputs.append([p.read_bytes() for p in grid.output_files[:2]])
    verdict("paper_grid twice at one seed: results.jsonl and summary.csv byte-identical",
            outputs[0] == outputs[1])
    config = simulator.ExperimentConfig(
        mechanisms=grid.mechanisms, epsilons=(0.5, 2.0), trials=3, seed=5,
        population=simulator.CountsPopulation(counts=PAPER_COUNTS),
    )
    serial, pooled = (
        [simulator.trial_result_to_dict(r) for r in simulator.run_sweep(config, workers=w)]
        for w in (1, 2)
    )
    verdict("run_sweep(workers=2) equals workers=1", serial == pooled)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    verdict("BENCHMARK.json names every workload with its reason",
            {w["name"]: w["why"] for w in spec["workloads"]}
            == {name: w.why for name, w in WORKLOADS.items()}
            and list(WORKLOADS) == list(run.WORKLOAD_NAMES))
    result = _run("paper_grid", 0)
    verdict("untraced run prints the declared end-to-end metrics",
            list(result["metrics"]) == declared[0] and result["correct"])
    for workload in run.WORKLOAD_NAMES:
        first, second = _run(workload, 1), _run(workload, 1)
        if workload == "paper_grid":
            verdict("traced run prints the declared per-layer metrics",
                    list(first["metrics"]) == declared[1])
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if v["unit"] in ("count", "B")}
        again = {k: second["metrics"][k]["value"] for k in counts}
        verdict(f"{workload}: count metrics repeat across two traced runs",
                counts == again and first["correct"] and second["correct"],
                ", ".join(f"{k}={v}" for k, v in counts.items() if v))


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    check_generators()
    check_zone_range()
    check_failures_counted()
    check_determinism()
    check_runs()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
