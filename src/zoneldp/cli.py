"""Command-line surface: zones, simulate, sweep, summarize.

Thin argparse layer over the library. Configs are single JSON files with
flag overrides; outputs are machine-readable and written atomically (temp
file + rename) so failures never leave partial files behind.

Exit codes: 0 ok, 1 usage/config, 2 I/O, 3 data.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
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


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def _resolve_seed(flag_value, cfg: dict) -> int:
    if flag_value is not None:
        return int(flag_value)
    if "seed" in cfg:
        return int(cfg["seed"])
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
        return CountsPopulation(counts=tuple(pop["counts"]))
    if "fingerprints" in pop:
        for key in ("schema", "table"):
            if key not in pop:
                raise ConfigError(f'fingerprint population needs "{key}"')
        schema = load_schema(pop["schema"])
        _, fingerprints = load_fingerprints(pop["fingerprints"], schema)
        table = load_zone_table(pop["table"])
        return LookupPopulation(fingerprints=tuple(fingerprints), table=table)
    raise ConfigError('population must have "counts" or "fingerprints"')


_PARAM_KEYS = ("the_theta", "cms_k", "cms_m", "rappor_k", "rappor_m")


def _params_from_config(cfg: dict, mechanism: str, epsilon: float) -> PrivacyParams:
    sizes = cfg.get("params", {})
    if not isinstance(sizes, dict):
        raise ConfigError('"params" must be a JSON object')
    unknown = [k for k in sizes if k not in _PARAM_KEYS]
    if unknown:
        raise ConfigError(f"unknown params keys {unknown}; expected {_PARAM_KEYS}")
    try:
        return PrivacyParams(epsilon=epsilon, mechanism=mechanism, **sizes)
    except ValueError as exc:
        raise ConfigError(str(exc))


def cmd_zones(args) -> int:
    schema = load_schema(args.schema)
    meta, fingerprints = load_fingerprints(args.input, schema)
    if args.m < 1 or args.m > meta.n_aps:
        raise _UsageError(f"--m must be in [1, {meta.n_aps}] for this file")
    table = build_zone_table(fingerprints, args.m)
    _atomic_write(args.out, zone_table_to_json(table))
    print(
        json.dumps(
            {
                "zones": table.n_zones,
                "max_zones": max_zone_count(meta.n_aps, args.m),
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
    epsilon = float(cfg["epsilon"])
    seed = _resolve_seed(args.seed, cfg)
    params = _params_from_config(cfg, mechanism, epsilon)
    population = _population_from_config(cfg)

    # the round is trial 0 of a one-cell sweep grid, on the sweep's streams
    config = ExperimentConfig(
        mechanisms=(mechanism,),
        epsilons=(epsilon,),
        trials=1,
        seed=seed,
        population=population,
        params=params,
    )
    collected = [] if args.reports_out else None
    result = run_trial(config, 0, 0, 0, *resolve_population(config), collected)
    # the trial's record, with the seed in place of the trial index
    payload = dict(
        ("seed", seed) if key == "trial" else (key, value)
        for key, value in trial_result_to_dict(result).items()
    )
    _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    if args.reports_out:
        import io

        buffer = io.StringIO()
        write_reports(collected, buffer)
        _atomic_write(args.reports_out, buffer.getvalue())
    print(json.dumps({"seed": seed, "out": str(args.out)}))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    mechanisms = cfg.get("mechanisms")
    if not mechanisms:
        raise ConfigError('config needs a nonempty "mechanisms" list')
    epsilons = cfg.get("epsilons")
    if not epsilons:
        raise ConfigError('config needs a nonempty "epsilons" list')
    trials = int(args.trials if args.trials is not None else cfg.get("trials", 20))
    seed = _resolve_seed(args.seed, cfg)
    workers = int(args.workers if args.workers is not None else cfg.get("workers", 1))
    params = _params_from_config(cfg, mechanisms[0], float(epsilons[0]))
    population = _population_from_config(cfg)

    config = ExperimentConfig(
        mechanisms=tuple(mechanisms),
        epsilons=tuple(float(e) for e in epsilons),
        trials=trials,
        seed=seed,
        population=population,
        params=params,
    )
    results = run_sweep(config, workers=workers)
    summary = summarize(results)

    out_dir = Path(args.out)
    import io

    buffer = io.StringIO()
    write_results(results, buffer)
    _atomic_write(out_dir / "results.jsonl", buffer.getvalue())
    _atomic_write(out_dir / "summary.csv", summary_to_csv(summary))
    _atomic_write(out_dir / "zone_stats.csv", zone_stats_to_csv(summary))
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
        try:
            results = read_results(fh)
        except (json.JSONDecodeError, KeyError) as exc:
            raise DataError(f"results file is not valid: {exc}")
    if not results:
        raise DataError("results file is empty")
    summary = summarize(results)
    _atomic_write(args.out, summary_to_csv(summary))
    if args.zones_out:
        _atomic_write(args.zones_out, zone_stats_to_csv(summary))
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
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
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
