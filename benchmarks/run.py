#!/usr/bin/env python3
"""zoneldp benchmark runner.

Run from the repository root::

    python3 benchmarks/run.py --workload paper_grid --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40

One workload per run: it generates the workload's inputs from ``--seed``,
times the program's set-up, then repeats the workload's pass until
``--seconds`` have gone by and checks every pass's output. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (rounds) and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it is a JSON object with the details (sizes, quartiles, pass count, and
with tracing the self-time shares). Exit code 1 means an output check
failed or the library could not be found.

``--workload all`` runs every workload untraced and traced, each in its
own process, prints every metric by name with its unit, writes
``.bench_out/report.json`` with the machine details, and exits nonzero if
any output check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import check_pass

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("paper_grid", "crowd_50k", "venue_live")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import zoneldp; "
    "print(time.perf_counter() - t)"
)


def _load_library():
    if not (SRC / "zoneldp" / "__init__.py").is_file():
        sys.exit(f"error: no zoneldp sources under {SRC}; run from a zoneldp checkout")
    sys.path.insert(0, str(SRC))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# --- set-up -------------------------------------------------------------------


def import_seconds() -> float:
    """Median time of ``import zoneldp`` in a fresh interpreter.

    One unrecorded import first, so bytecode is compiled and the files are
    in the page cache, as they are for any user after the first run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout))
    return statistics.median(times[1:])


def program_setup_seconds(workload) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# --- passes -------------------------------------------------------------------


class Tally:
    """Rounds attempted and failed over the run, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_pass(self, workload, output, error):
        if error is not None:
            attempted, failed, problems = workload.rounds_per_pass, workload.rounds_per_pass, [error]
        else:
            attempted, failed, problems = check_pass(workload, output)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def timed_pass(workload):
    """(seconds, output, error text): a pass that raises is failed, not fatal."""
    t0 = time.perf_counter()
    try:
        output, error = workload.run_pass(), None
    except Exception as exc:  # counted as failed rounds; the run goes on
        output, error = None, f"pass raised {exc!r}"
    return time.perf_counter() - t0, output, error


def _more(started: float, seconds: float, walls) -> bool:
    """Start another pass only if a typical pass still fits in the time left."""
    if not walls:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def untraced_run(workload, seconds: float):
    tally, walls = Tally(), []
    started = time.perf_counter()
    while _more(started, seconds, walls):
        wall, output, error = timed_pass(workload)
        walls.append(wall)
        tally.add_pass(workload, output, error)
    return walls, tally


def traced_run(workload, seconds: float):
    """Alternate untraced and traced passes; spans come from the traced ones."""
    from tracing import Tracer

    tracer = Tracer()
    builds = []
    for _ in range(SETUP_REPEATS):
        tracer.install()
        lo = tracer.mark()
        workload.setup()
        tracer.uninstall()
        builds.append(tracer.totals(lo, tracer.mark()).get("zoning.build_zone_table", (0, 0.0))[1])

    tally = Tally()
    plain, traced, ranges, counters = [], [], [], []
    started = time.perf_counter()
    while not traced or _more(started, seconds, plain + traced):
        tracing = len(plain) > len(traced)
        if tracing:
            tracer.counters.clear()
            tracer.install()
            if hasattr(workload, "on_window"):
                tracer.hold_round = True
                workload.on_window = tracer.begin_round
            lo = tracer.mark()
        wall, output, error = timed_pass(workload)
        if tracing:
            tracer.uninstall()
            tracer.hold_round = False
            if hasattr(workload, "on_window"):
                workload.on_window = None
            ranges.append((lo, tracer.mark()))
            counts = dict(tracer.counters)
            if hasattr(workload, "output_files"):
                counts["cli.bytes_written"] = sum(
                    p.stat().st_size for p in workload.output_files if p.is_file())
            counters.append(counts)
            traced.append(wall)
        else:
            plain.append(wall)
        tally.add_pass(workload, output, error)
    return tracer, builds, plain, traced, ranges, counters, tally


def layer_metrics(workload, tracer, builds, plain, traced, ranges, counters):
    from zoneldp.domain import MECHANISMS

    per_pass = [tracer.totals(lo, hi) for lo, hi in ranges]

    def median_over_passes(value):
        return statistics.median(value(t, c) for t, c in zip(per_pass, counters))

    def calls(name):
        return median_over_passes(lambda t, c: t.get(name, (0, 0.0, 0.0))[0])

    def secs(name):
        return median_over_passes(lambda t, c: t.get(name, (0, 0.0, 0.0))[1])

    def self_secs(name):
        return median_over_passes(lambda t, c: t.get(name, (0, 0.0, 0.0))[2])

    def counted(key):
        return median_over_passes(lambda t, c: c.get(key, 0))

    rounds = tracer.durations("simulator.run_round", ranges)
    p50, p90 = (float(v) for v in (np.percentile(rounds, [50, 90]) if rounds.size else (0.0, 0.0)))
    table = getattr(workload, "table", None)
    out = {
        "cli.sweep_s": (secs("cli.main"), "s"),
        "cli.self_s": (self_secs("cli.main"), "s"),
        "cli.bytes_written": (counted("cli.bytes_written"), "B"),
        "simulator.sweep_self_s": (self_secs("simulator.run_sweep"), "s"),
        "simulator.rounds": (calls("simulator.run_round"), "count"),
        "simulator.round_self_s": (self_secs("simulator.run_round"), "s"),
        "simulator.round_s_p50": (p50, "s"),
        "simulator.round_s_p90": (p90, "s"),
        "simulator.summarize_s": (secs("simulator.summarize"), "s"),
        "simulator.write_results_s": (secs("simulator.write_results"), "s"),
        "zoning.build_s": (statistics.median(builds), "s"),
        "zoning.lookup_s": (secs("zoning.assign_zones"), "s"),
        "zoning.lookups": (counted("zoning.lookups"), "count"),
        "zoning.unmatched": (counted("zoning.unmatched"), "count"),
        "zoning.insufficient": (counted("zoning.insufficient"), "count"),
        "zoning.zones": (table.n_zones if table is not None else 0, "count"),
        "dataio.synth_s": (secs("dataio.synth_population"), "s"),
    }
    for mech in MECHANISMS:
        out[f"oracles.{mech}.make_s"] = (secs(f"oracles.{mech}.make"), "s")
        out[f"oracles.{mech}.perturb_s"] = (secs(f"oracles.{mech}.perturb_batch"), "s")
        out[f"oracles.{mech}.reports"] = (counted(f"oracles.{mech}.reports"), "count")
        out[f"oracles.{mech}.report_bytes"] = (counted(f"oracles.{mech}.report_bytes"), "B")
        out[f"oracles.{mech}.aggregate_s"] = (secs(f"oracles.{mech}.aggregate"), "s")
    out["oracles.hashing.family_s"] = (secs("oracles.hashing.family_member_seed"), "s")
    out["oracles.hashing.family_calls"] = (calls("oracles.hashing.family_member_seed"), "count")
    out["oracles.hashing.bucket_s"] = (secs("oracles.hashing.hash_bucket_array"), "s")
    out["metrics.report_s"] = (secs("metrics.metric_report"), "s")
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    # self time per span name, as a share of the traced pass
    wall = statistics.median(traced)
    names = sorted({n for t in per_pass for n in t})
    shares = {n: self_secs(n) / wall for n in names}
    top = dict(sorted(shares.items(), key=lambda kv: -kv[1])[:10])
    return out, {k: round(v, 4) for k, v in top.items()}


# --- one workload -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _load_library()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed, OUT)
    detail = {"workload": name, "why": workload.why, "seed": seed, "trace": int(trace)}
    if trace:
        tracer, builds, plain, traced, ranges, counters, tally = traced_run(workload, seconds)
        values, shares = layer_metrics(workload, tracer, builds, plain, traced, ranges, counters)
        tracer.save(OUT / f"{name}-spans.npz")
        detail.update(traced_passes=len(traced), untraced_passes=len(plain),
                      traced_wall_s=statistics.median(traced),
                      untraced_wall_s=statistics.median(plain), self_share=shares)
    else:
        setup_import = import_seconds()
        setup_program = program_setup_seconds(workload)
        walls, tally = untraced_run(workload, seconds)
        q1, med, q3 = _quartiles(walls)
        values = {
            "wall_s": (med, "s"),
            "setup_s": (setup_import + setup_program, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail.update(wall_s={"median": med, "q1": q1, "q3": q3, "passes": len(walls)},
                      setup={"import_s": setup_import, "program_s": setup_program})
    correct = tally.failed == 0
    detail.update(sizes=workload.sizes(), failed_frac=tally.failed / tally.attempted,
                  problems=tally.problems)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0 if correct else 1


# --- every workload -----------------------------------------------------------


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def _number(value) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def _print_workload(name: str, entry: dict) -> None:
    detail = entry.get("untraced", {}).get("detail", {})
    print(f"{name}  {json.dumps(detail.get('sizes', {}))}")
    print(f"  why: {detail.get('why', '')}")
    for trace in ("untraced", "traced"):
        if trace not in entry:
            print(f"  ({trace} run produced no result)")
            continue
        result = entry[trace]["result"]
        for metric, value in result["metrics"].items():
            if trace == "traced" and value["value"] == 0:
                continue
            print(f"  {metric:<32} {_number(value['value']):>14} {value['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':<32} {_number(frac):>14} ratio"
              f"  ({result['failed']} of {result['attempted']} rounds, {trace})")
    wall = detail.get("wall_s")
    if wall:
        print(f"  wall_s quartiles {wall['q1']:.4f} / {wall['median']:.4f} / "
              f"{wall['q3']:.4f} s over {wall['passes']} passes")
    shares = entry.get("traced", {}).get("detail", {}).get("self_share")
    if shares:
        print("  self-time share of a traced pass: " + ", ".join(
            f"{k} {v:.1%}" for k, v in shares.items()))
    for trace in ("untraced", "traced"):
        for problem in entry.get(trace, {}).get("detail", {}).get("problems", []):
            print(f"  PROBLEM ({trace}): {problem}")


def run_all(seed: int, seconds: float) -> int:
    report = {"machine": machine_info(), "seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=seconds + 900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr)
            if len(lines) >= 2:
                entry["traced" if trace else "untraced"] = {
                    "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}
        _print_workload(name, entry)
    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"machine: {json.dumps(report['machine'])}")
    print(f"report written to {OUT / 'report.json'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
