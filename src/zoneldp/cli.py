"""Command-line surface: zones, simulate, sweep, summarize.

Thin argparse layer over the library. Configs are single JSON files with
flag overrides; outputs are machine-readable and written atomically (temp
file + rename) so failures never leave partial files behind.

Exit codes: 0 ok, 1 usage/config, 2 I/O, 3 data.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from .dataio import load_fingerprints, load_schema
from .domain import MECHANISMS, PrivacyParams, max_zone_count
from .errors import ConfigError, DataError, ZoneLdpError
from .oracles import write_reports
from .simulator import (
    CountsPopulation,
    ExperimentConfig,
    LookupPopulation,
    read_results,
    resolve_population,
    run_sweep,
    run_trial,
    summarize,
    summary_to_csv,
    trial_result_to_dict,
    write_results,
    zone_stats_to_csv,
)
from .zoning import build_zone_table, load_zone_table, zone_table_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3

SEED_ENV = "ZONELDP_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _atomic_write(path):
    """A text handle on a temporary file beside ``path``, renamed to ``path``
    when the block ends and removed when it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _resolve_seed(flag_value, cfg: dict):
    """The flag's seed, else the config's, else the environment's, else 0;
    ``ExperimentConfig`` checks whichever it is."""
    if flag_value is not None:
        return flag_value
    if "seed" in cfg:
        return cfg["seed"]
    env = os.environ.get(SEED_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV} must be an integer, got {env!r}")
    return 0


def _population_from_config(cfg: dict):
    pop = cfg.get("population")
    if not isinstance(pop, dict):
        raise ConfigError('config needs a "population" object')
    if "counts" in pop:
        return CountsPopulation(counts=pop["counts"])
    if "fingerprints" in pop:
        for key in ("schema", "table"):
            if key not in pop:
                raise ConfigError(f'fingerprint population needs "{key}"')
        schema = load_schema(pop["schema"])
        fingerprints = load_fingerprints(pop["fingerprints"], schema)
        try:  # a table that does not parse, or not of the file's width
            table = load_zone_table(pop["table"])
            return LookupPopulation(fingerprints=fingerprints, table=table)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad zone table {pop['table']}: {exc}") from exc
    raise ConfigError('population must have "counts" or "fingerprints"')


_PARAM_KEYS = tuple(f.name for f in fields(PrivacyParams))


def _params_from_config(cfg: dict) -> PrivacyParams:
    sizes = cfg.get("params", {})
    if not isinstance(sizes, dict):
        raise ConfigError('"params" must be a JSON object')
    unknown = [k for k in sizes if k not in _PARAM_KEYS]
    if unknown:
        raise ConfigError(f"unknown params keys {unknown}; expected {_PARAM_KEYS}")
    try:
        return PrivacyParams(**sizes)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_zones(args) -> int:
    schema = load_schema(args.schema)
    fingerprints = load_fingerprints(args.input, schema)
    n_aps = fingerprints.shape[1]
    if args.m < 1 or args.m > n_aps:
        raise _UsageError(f"--m must be in [1, {n_aps}] for this file")
    table = build_zone_table(fingerprints, args.m)
    with _atomic_write(args.out) as fh:
        fh.write(zone_table_to_json(table))
    print(
        json.dumps(
            {
                "zones": table.n_zones,
                "max_zones": max_zone_count(n_aps, args.m),
                "skipped_training": table.skipped_training,
                "out": str(args.out),
            }
        )
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    mechanism = cfg.get("mechanism")
    if mechanism not in MECHANISMS:
        raise ConfigError(f'config needs "mechanism", one of {MECHANISMS}')
    if "epsilon" not in cfg:
        raise ConfigError('config needs "epsilon"')
    seed = _resolve_seed(args.seed, cfg)
    params = _params_from_config(cfg)
    population = _population_from_config(cfg)

    # the round is trial 0 of a one-cell sweep grid, on the sweep's streams
    config = ExperimentConfig(
        mechanisms=(mechanism,),
        epsilons=(cfg["epsilon"],),
        trials=1,
        seed=seed,
        population=population,
        params=params,
    )
    # the trace streams into its temporary file while the round runs
    trace = contextlib.nullcontext()
    if args.reports_out:
        trace = _atomic_write(args.reports_out)
    with trace as fh:
        collect = None if fh is None else lambda batch: write_reports(batch, fh, mechanism)
        result = run_trial(config, 0, 0, 0, *resolve_population(config), collect)
        # the trial's record, with the seed in place of the trial index
        payload = dict(
            ("seed", seed) if key == "trial" else (key, value)
            for key, value in trial_result_to_dict(result).items()
        )
        with _atomic_write(args.out) as out:
            out.write(json.dumps(payload, indent=2) + "\n")
    print(json.dumps({"seed": seed, "out": str(args.out)}))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    seed = _resolve_seed(args.seed, cfg)
    config = ExperimentConfig(
        mechanisms=cfg.get("mechanisms"),
        epsilons=cfg.get("epsilons"),
        trials=args.trials if args.trials is not None else cfg.get("trials", 20),
        seed=seed,
        params=_params_from_config(cfg),
        population=_population_from_config(cfg),
    )
    workers = args.workers if args.workers is not None else cfg.get("workers", 1)
    results = run_sweep(config, workers=workers)
    summary = summarize(results)

    out_dir = Path(args.out)
    with _atomic_write(out_dir / "results.jsonl") as fh:
        write_results(results, fh)
    with _atomic_write(out_dir / "summary.csv") as fh:
        fh.write(summary_to_csv(summary))
    with _atomic_write(out_dir / "zone_stats.csv") as fh:
        fh.write(zone_stats_to_csv(summary))
    print(
        json.dumps(
            {
                "seed": seed,
                "n_results": len(results),
                "results": str(out_dir / "results.jsonl"),
                "summary": str(out_dir / "summary.csv"),
                "zone_stats": str(out_dir / "zone_stats.csv"),
            }
        )
    )
    return EXIT_OK


def cmd_summarize(args) -> int:
    with open(args.results, "r", encoding="utf-8") as fh:
        results = read_results(fh)
    if not results:
        raise DataError("results file is empty")
    summary = summarize(results)
    with _atomic_write(args.out) as fh:
        fh.write(summary_to_csv(summary))
    if args.zones_out:
        with _atomic_write(args.zones_out) as fh:
            fh.write(zone_stats_to_csv(summary))
    print(json.dumps({"rows": len(summary.metric_rows), "out": str(args.out)}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zoneldp", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_zones = sub.add_parser("zones", help="build a zone table from fingerprints")
    p_zones.add_argument("--input", required=True, help="fingerprint file")
    p_zones.add_argument("--schema", required=True, help="schema descriptor JSON")
    p_zones.add_argument("--m", type=int, required=True, help="strongest-AP count")
    p_zones.add_argument("--out", required=True, help="zone table output path")
    p_zones.set_defaults(func=cmd_zones)

    p_sim = sub.add_parser("simulate", help="run a single round")
    p_sim.add_argument("--config", required=True, help="round config JSON")
    p_sim.add_argument("--out", required=True, help="result output path")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument(
        "--reports-out", default=None, help="also write the report trace (JSON lines)"
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a mechanism x epsilon x trial grid")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sweep.add_argument("--trials", type=int, default=None, help="override trials")
    p_sweep.add_argument("--workers", type=int, default=None, help="worker processes")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sum = sub.add_parser("summarize", help="summarize a results file")
    p_sum.add_argument("--results", required=True, help="results JSON lines file")
    p_sum.add_argument("--out", required=True, help="summary CSV output path")
    p_sum.add_argument(
        "--zones-out", default=None, help="also write per-zone stats CSV"
    )
    p_sum.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise _UsageError("a subcommand is required")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZoneLdpError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except json.JSONDecodeError as exc:
        print(f"data error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
