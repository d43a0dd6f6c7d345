"""End-to-end tests of the command-line interface.

Every test drives ``main(argv)`` in process and checks exit codes, printed
JSON, and produced files; one subprocess smoke test covers
``entry_point``, through the ``zoneldp`` console script when one is on
``PATH`` and through ``python -m zoneldp`` otherwise.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import zoneldp
from zoneldp.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, SEED_ENV, main
from zoneldp.domain import MECHANISMS
from zoneldp.zoning import load_zone_table

SCHEMA = {
    "delimiter": ",",
    "rssi_columns": ["AP1", "AP2", "AP3"],
    "x": "x",
    "y": "y",
}

FINGERPRINT_CSV = (
    "x,y,AP1,AP2,AP3\n"
    "0.0,0.0,-40,-45,-90\n"
    "0.0,1.0,-42,-44,-88\n"
    "5.0,0.0,-90,-45,-40\n"
    "5.0,1.0,-88,-46,-41\n"
)


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    (tmp_path / "fingerprints.csv").write_text(FINGERPRINT_CSV, encoding="utf-8")
    return tmp_path


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def build_table(workspace, capsys):
    out = workspace / "table.json"
    code, _, _ = run_cli(
        [
            "zones",
            "--input", workspace / "fingerprints.csv",
            "--schema", workspace / "schema.json",
            "--m", "2",
            "--out", out,
        ],
        capsys,
    )
    assert code == EXIT_OK
    return out


class TestZones:
    def test_builds_table_and_reports_shape(self, workspace, capsys):
        out = workspace / "table.json"
        code, stdout, _ = run_cli(
            [
                "zones",
                "--input", workspace / "fingerprints.csv",
                "--schema", workspace / "schema.json",
                "--m", "2",
                "--out", out,
            ],
            capsys,
        )
        assert code == EXIT_OK
        info = last_json(stdout)
        assert info["zones"] == 2
        assert info["max_zones"] == 3  # C(3, 2) hand-computed
        assert info["skipped_training"] == 0
        table = load_zone_table(out)
        assert table.n_zones == 2

    def test_pattern_size_beyond_ap_count_is_a_usage_error(self, workspace, capsys):
        code, _, stderr = run_cli(
            [
                "zones",
                "--input", workspace / "fingerprints.csv",
                "--schema", workspace / "schema.json",
                "--m", "4",
                "--out", workspace / "table.json",
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "usage error" in stderr

    def test_missing_input_file_is_an_io_error(self, workspace, capsys):
        code, _, stderr = run_cli(
            [
                "zones",
                "--input", workspace / "nope.csv",
                "--schema", workspace / "schema.json",
                "--m", "2",
                "--out", workspace / "table.json",
            ],
            capsys,
        )
        assert code == EXIT_IO
        assert "i/o error" in stderr


class TestSimulate:
    def _write_config(self, workspace, name="sim.json", **overrides):
        cfg = {
            "mechanism": "OUE",
            "epsilon": 1.0,
            "population": {"counts": [30, 20, 10]},
            "seed": 9,
        }
        cfg.update(overrides)
        path = workspace / name
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_round_payload(self, workspace, capsys):
        config = self._write_config(workspace)
        out = workspace / "round.json"
        code, stdout, _ = run_cli(
            ["simulate", "--config", config, "--out", out], capsys
        )
        assert code == EXIT_OK
        assert last_json(stdout) == {"seed": 9, "out": str(out)}
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["mechanism"] == "OUE"
        assert payload["true_counts"] == [30, 20, 10]
        assert payload["n_reports"] == 60
        assert len(payload["raw"]) == 3
        assert payload["diagnostics"] == {"insufficient_signals": 0, "unmatched": 0}

    def test_same_seed_writes_identical_files(self, workspace, capsys):
        config = self._write_config(workspace)
        first = workspace / "a.json"
        second = workspace / "b.json"
        assert run_cli(["simulate", "--config", config, "--out", first], capsys)[0] == EXIT_OK
        assert run_cli(["simulate", "--config", config, "--out", second], capsys)[0] == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_seed_flag_beats_config(self, workspace, capsys):
        config = self._write_config(workspace)
        code, stdout, _ = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r.json", "--seed", "5"],
            capsys,
        )
        assert code == EXIT_OK
        assert last_json(stdout)["seed"] == 5

    def test_env_seed_fills_in_when_config_has_none(self, workspace, capsys, monkeypatch):
        cfg = {
            "mechanism": "OUE",
            "epsilon": 1.0,
            "population": {"counts": [10, 10]},
        }
        config = workspace / "sim.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        monkeypatch.setenv(SEED_ENV, "17")
        code, stdout, _ = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r.json"], capsys
        )
        assert code == EXIT_OK
        assert last_json(stdout)["seed"] == 17

        monkeypatch.delenv(SEED_ENV)
        code, stdout, _ = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r2.json"], capsys
        )
        assert code == EXIT_OK
        assert last_json(stdout)["seed"] == 0

    def test_non_integer_env_seed_is_a_config_error(self, workspace, capsys, monkeypatch):
        cfg = {"mechanism": "OUE", "epsilon": 1.0, "population": {"counts": [5, 5]}}
        config = workspace / "sim.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        monkeypatch.setenv(SEED_ENV, "soon")
        code, _, stderr = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r.json"], capsys
        )
        assert code == EXIT_USAGE
        assert SEED_ENV in stderr

    def test_report_trace_has_one_line_per_user(self, workspace, capsys):
        config = self._write_config(workspace)
        trace = workspace / "reports.jsonl"
        code, _, _ = run_cli(
            [
                "simulate",
                "--config", config,
                "--out", workspace / "r.json",
                "--reports-out", trace,
            ],
            capsys,
        )
        assert code == EXIT_OK
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 60
        first = json.loads(lines[0])
        assert first["mech"] == "OUE"

    @pytest.mark.parametrize("mechanism", ["OLH", "OUE", "THE", "HR", "CMS", "RAPPOR"])
    def test_report_trace_leaves_the_result_unchanged(self, workspace, capsys, mechanism):
        config = self._write_config(workspace, mechanism=mechanism)
        plain = workspace / "plain.json"
        traced = workspace / "traced.json"
        assert run_cli(["simulate", "--config", config, "--out", plain], capsys)[0] == EXIT_OK
        code, _, _ = run_cli(
            [
                "simulate",
                "--config", config,
                "--out", traced,
                "--reports-out", workspace / "reports.jsonl",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert plain.read_bytes() == traced.read_bytes()

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_matches_trial_zero_of_a_one_trial_sweep(self, workspace, capsys, mechanism):
        config = self._write_config(workspace, mechanism=mechanism, epsilon=0.5)
        out = workspace / "round.json"
        assert run_cli(["simulate", "--config", config, "--out", out], capsys)[0] == EXIT_OK
        sweep = workspace / "sweep.json"
        sweep.write_text(
            json.dumps(
                {
                    "mechanisms": [mechanism],
                    "epsilons": [0.5],
                    "trials": 1,
                    "seed": 9,
                    "population": {"counts": [30, 20, 10]},
                }
            ),
            encoding="utf-8",
        )
        run_dir = workspace / "run"
        assert run_cli(["sweep", "--config", sweep, "--out", run_dir], capsys)[0] == EXIT_OK
        (line,) = (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
        trial = json.loads(line)
        payload = json.loads(out.read_text(encoding="utf-8"))
        for key in ("true_counts", "raw", "n_reports", "metrics"):
            assert payload[key] == trial[key], key

    def test_mechanism_specific_params_are_accepted(self, workspace, capsys):
        config = self._write_config(
            workspace, mechanism="THE", params={"the_theta": 1.5}
        )
        code, _, _ = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r.json"], capsys
        )
        assert code == EXIT_OK

    def test_unknown_params_key_is_a_config_error(self, workspace, capsys):
        config = self._write_config(workspace, params={"page_size": 7})
        code, _, stderr = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r.json"], capsys
        )
        assert code == EXIT_USAGE
        assert "config error" in stderr

    @pytest.mark.parametrize(
        "broken",
        [
            {"mechanism": None},
            {"epsilon": None},
            {"population": None},
        ],
    )
    def test_missing_required_config_keys(self, workspace, capsys, broken):
        cfg = {
            "mechanism": "OUE",
            "epsilon": 1.0,
            "population": {"counts": [5, 5]},
        }
        cfg.update(broken)
        cfg = {k: v for k, v in cfg.items() if v is not None}
        config = workspace / "sim.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        code, _, _ = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r.json"], capsys
        )
        assert code == EXIT_USAGE

    def test_config_must_be_a_json_object(self, workspace, capsys):
        config = workspace / "sim.json"
        config.write_text("[1, 2]", encoding="utf-8")
        code, _, _ = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r.json"], capsys
        )
        assert code == EXIT_USAGE

        config.write_text("{not json", encoding="utf-8")
        code, _, _ = run_cli(
            ["simulate", "--config", config, "--out", workspace / "r.json"], capsys
        )
        assert code == EXIT_USAGE

    def test_missing_config_file_is_an_io_error(self, workspace, capsys):
        code, _, _ = run_cli(
            ["simulate", "--config", workspace / "none.json", "--out", workspace / "r.json"],
            capsys,
        )
        assert code == EXIT_IO


class TestSweep:
    def _write_config(self, workspace, name="sweep.json", **overrides):
        cfg = {
            "mechanisms": ["OLH", "OUE"],
            "epsilons": [0.5, 2.0],
            "trials": 2,
            "seed": 4,
            "population": {"counts": [30, 20, 10]},
        }
        cfg.update(overrides)
        path = workspace / name
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_writes_results_and_summaries(self, workspace, capsys):
        config = self._write_config(workspace)
        out = workspace / "run"
        code, stdout, _ = run_cli(["sweep", "--config", config, "--out", out], capsys)
        assert code == EXIT_OK
        info = last_json(stdout)
        assert info["seed"] == 4
        assert info["n_results"] == 2 * 2 * 2
        results = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(results) == 8
        summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        assert summary[0] == "mechanism,epsilon,metric,mean,median,q1,q3"
        assert len(summary) == 1 + 2 * 2 * 3
        zones = (out / "zone_stats.csv").read_text(encoding="utf-8").splitlines()
        assert zones[0] == "epsilon,zone,true_count,abs_diff_sum,rel_error_ceil"
        assert len(zones) == 1 + 2 * 3  # two epsilons, three populated zones

    def test_rerun_is_byte_identical(self, workspace, capsys):
        config = self._write_config(workspace)
        first = workspace / "run1"
        second = workspace / "run2"
        assert run_cli(["sweep", "--config", config, "--out", first], capsys)[0] == EXIT_OK
        assert run_cli(["sweep", "--config", config, "--out", second], capsys)[0] == EXIT_OK
        for name in ("results.jsonl", "summary.csv", "zone_stats.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_worker_count_is_an_execution_detail(self, workspace, capsys):
        config = self._write_config(workspace)
        serial = workspace / "serial"
        parallel = workspace / "parallel"
        code, _, _ = run_cli(
            ["sweep", "--config", config, "--out", serial, "--workers", "1"], capsys
        )
        assert code == EXIT_OK
        code, _, _ = run_cli(
            ["sweep", "--config", config, "--out", parallel, "--workers", "2"], capsys
        )
        assert code == EXIT_OK
        for name in ("results.jsonl", "summary.csv", "zone_stats.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_trials_flag_overrides_config(self, workspace, capsys):
        config = self._write_config(workspace)
        code, stdout, _ = run_cli(
            ["sweep", "--config", config, "--out", workspace / "run", "--trials", "1"],
            capsys,
        )
        assert code == EXIT_OK
        assert last_json(stdout)["n_results"] == 2 * 2 * 1

    def test_trials_default_is_twenty(self, workspace, capsys):
        config = self._write_config(
            workspace, mechanisms=["OUE"], epsilons=[1.0], trials=None
        )
        cfg = json.loads(config.read_text(encoding="utf-8"))
        del cfg["trials"]
        config.write_text(json.dumps(cfg), encoding="utf-8")
        code, stdout, _ = run_cli(
            ["sweep", "--config", config, "--out", workspace / "run"], capsys
        )
        assert code == EXIT_OK
        assert last_json(stdout)["n_results"] == 20

    def test_fingerprint_population_goes_through_the_table(self, workspace, capsys):
        table = build_table(workspace, capsys)
        config = self._write_config(
            workspace,
            mechanisms=["OUE"],
            epsilons=[1.0],
            trials=1,
            population={
                "fingerprints": str(workspace / "fingerprints.csv"),
                "schema": str(workspace / "schema.json"),
                "table": str(table),
            },
        )
        code, stdout, _ = run_cli(
            ["sweep", "--config", config, "--out", workspace / "run"], capsys
        )
        assert code == EXIT_OK
        line = (workspace / "run" / "results.jsonl").read_text(encoding="utf-8").splitlines()[0]
        result = json.loads(line)
        assert result["true_counts"] == [2, 2]

    def test_missing_grid_axes_are_config_errors(self, workspace, capsys):
        for missing in ("mechanisms", "epsilons"):
            config = self._write_config(workspace)
            cfg = json.loads(config.read_text(encoding="utf-8"))
            del cfg[missing]
            config.write_text(json.dumps(cfg), encoding="utf-8")
            code, _, stderr = run_cli(
                ["sweep", "--config", config, "--out", workspace / "run"], capsys
            )
            assert code == EXIT_USAGE
            assert "config error" in stderr


class TestSummarize:
    def test_reproduces_the_sweep_summary(self, workspace, capsys):
        config = TestSweep()._write_config(workspace)
        out = workspace / "run"
        assert run_cli(["sweep", "--config", config, "--out", out], capsys)[0] == EXIT_OK
        summary2 = workspace / "summary2.csv"
        zones2 = workspace / "zones2.csv"
        code, stdout, _ = run_cli(
            [
                "summarize",
                "--results", out / "results.jsonl",
                "--out", summary2,
                "--zones-out", zones2,
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert last_json(stdout)["rows"] == 2 * 2 * 3
        assert summary2.read_bytes() == (out / "summary.csv").read_bytes()
        assert zones2.read_bytes() == (out / "zone_stats.csv").read_bytes()

    def test_malformed_results_are_a_data_error(self, workspace, capsys):
        results = workspace / "results.jsonl"
        results.write_text("this is not json\n", encoding="utf-8")
        code, _, stderr = run_cli(
            ["summarize", "--results", results, "--out", workspace / "s.csv"], capsys
        )
        assert code == EXIT_DATA
        assert "data error" in stderr

    def test_empty_results_are_a_data_error(self, workspace, capsys):
        results = workspace / "results.jsonl"
        results.write_text("", encoding="utf-8")
        code, _, _ = run_cli(
            ["summarize", "--results", results, "--out", workspace / "s.csv"], capsys
        )
        assert code == EXIT_DATA


class TestParsing:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_no_subcommand_is_a_usage_error(self, capsys):
        code, _, stderr = run_cli([], capsys)
        assert code == EXIT_USAGE
        assert "usage error" in stderr

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, _ = run_cli(["sweep", "--confg", "x.json", "--out", "y"], capsys)
        assert code == EXIT_USAGE


class TestInstalledEntryPoint:
    def test_console_script_smoke(self, workspace):
        """Runs entry_point: the console script if on PATH, else python -m zoneldp."""
        script = shutil.which("zoneldp")
        launcher = [script] if script else [sys.executable, "-m", "zoneldp"]
        # The child imports the same package as this process, wherever
        # pytest was started from.
        package_root = str(Path(zoneldp.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        pythonpath = package_root + (os.pathsep + inherited if inherited else "")
        env = dict(os.environ, PYTHONPATH=pythonpath)
        out = workspace / "table.json"
        proc = subprocess.run(
            [
                *launcher,
                "zones",
                "--input", str(workspace / "fingerprints.csv"),
                "--schema", str(workspace / "schema.json"),
                "--m", "2",
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
            cwd=workspace,
            env=env,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["zones"] == 2
        assert out.exists()
