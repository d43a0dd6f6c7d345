"""End-to-end tests of the command-line interface.

Every test drives ``main(argv)`` in process and checks exit codes, printed
JSON, and produced files; one subprocess smoke test covers
``entry_point``, through the ``zoneldp`` console script when one is on
``PATH`` and through ``python -m zoneldp`` otherwise.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zoneldp
from zoneldp import cli, simulator
from zoneldp.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, SEED_ENV, main
from zoneldp.domain import MECHANISMS
from zoneldp.oracles import make_mechanism, read_reports
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

    # sha256 of each trace at counts [30, 20, 10] and seed 9, as written when
    # the trace was built from one report object per user; OUE, CMS and
    # RAPPOR as written since their bits compare 16-bit lanes of raw words,
    # THE since its client reports its thresholded bits the same way, HR
    # since its report carries the entry's sign as a bit
    TRACE_SHA256 = {
        ("OLH", 0.5): "3b065a1b9be74f574b50aea53bedd9e0efa822fd53dddbae333f934f4c586846",
        ("OLH", 2.0): "b866e7e529dc08460ffb9e362783068463b2d9084a95ed80f2531a783d728b62",
        ("OUE", 0.5): "8539f2743945a8e4195cbf8e79094378f08cb067478b91fc6ccd080737b55f8a",
        ("OUE", 2.0): "ab997d69a5410605b0e44563a1520fed652a00da6027986aa45742c32de13354",
        ("THE", 0.5): "2ca4dcdb8f1c242f923fe1eb24cacb5c4c8328939de4e01f7a6eb22a55fb3254",
        ("THE", 2.0): "5cf6b1c6e6425cf5c3f4cabf668cd37a6f5acd2352ea96c624186184f3dbe3e7",
        ("HR", 0.5): "50cdc1f1b1ab56a7835c0ce7f3b0044b5c96d90a7ca24360600ad5b5542ee928",
        ("HR", 2.0): "8d7d99947b1bd3f67ac559f41c2105024fb8d2fcfb3b6d1b2410ad6f4471b0bf",
        ("CMS", 0.5): "a8f24f070a2cbfda4a3f52c433c8503203a33f91d8d80a9b5a68676f34997799",
        ("CMS", 2.0): "41955c7c1b441de6b155b9d5379ce35f5f87693ffd03abf20619aae37f245d07",
        ("RAPPOR", 0.5): "2c8b85bd9dc5791b58777159c6532ac61df2698c5d1411d36f9f69958b9da82d",
        ("RAPPOR", 2.0): "be98180bccb6427a4fcfd05d74b4ce377666ea6c8a54e805166c6c8e406c6152",
    }

    @pytest.mark.parametrize("mechanism, epsilon", sorted(TRACE_SHA256))
    def test_report_trace_bytes_are_pinned(self, workspace, capsys, mechanism, epsilon):
        config = self._write_config(workspace, mechanism=mechanism, epsilon=epsilon)
        out, trace = workspace / "r.json", workspace / "reports.jsonl"
        argv = ["simulate", "--config", config, "--out", out, "--reports-out", trace]
        assert run_cli(argv, capsys)[0] == EXIT_OK
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        assert digest == self.TRACE_SHA256[mechanism, epsilon]
        # read back, the trace aggregates to the result's raw estimate
        kwargs = {}
        if mechanism in ("CMS", "RAPPOR"):
            # the round's sketch family is the first draw of its stream
            stream = np.random.SeedSequence([9, simulator._ROUND_TAG, 0, 0, 0])
            kwargs["hash_seed"] = int(np.random.default_rng(stream).integers(0, 1 << 63))
        oracle = make_mechanism(mechanism, 3, epsilon, **kwargs)
        with open(trace, encoding="utf-8") as fh:
            raw = oracle.aggregate(read_reports(fh)).raw
        assert raw.tolist() == json.loads(out.read_text(encoding="utf-8"))["raw"]

    def test_an_empty_population_writes_an_empty_trace(self, workspace, capsys):
        cfg = {
            "mechanism": "OUE",
            "epsilon": 1.0,
            "population": {
                "fingerprints": workspace / "fp.csv",
                "schema": workspace / "schema.json",
                "table": build_table(workspace, capsys),
            },
        }
        config = workspace / "empty.json"
        config.write_text(json.dumps(cfg, default=str), encoding="utf-8")
        (workspace / "fp.csv").write_text("x,y,AP1,AP2,AP3\n9,9,-90,,\n", encoding="utf-8")
        trace = workspace / "reports.jsonl"
        argv = ["simulate", "--config", config, "--out", workspace / "r.json",
                "--reports-out", trace]
        assert run_cli(argv, capsys)[0] == EXIT_OK
        assert json.loads((workspace / "r.json").read_text())["n_reports"] == 0
        assert trace.read_bytes() == b""

    def test_a_budget_below_the_lane_grid_is_a_config_error(self, workspace, capsys):
        # CMS keeps p > q on the 2^-16 grid only from eps of about 2^-13
        config = self._write_config(workspace, mechanism="CMS", epsilon=5e-5)
        out = workspace / "r.json"
        code, _, stderr = run_cli(["simulate", "--config", config, "--out", out], capsys)
        assert code == EXIT_USAGE
        assert stderr.startswith("config error:") and "must exceed" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("theta, named", [(60, "out of range"), (-60, "out of range")])
    def test_a_theta_the_lane_grid_cannot_split_is_a_config_error(
        self, workspace, capsys, theta, named
    ):
        # at eps = 0.5, theta = 60 gives p = e^(-59/4) / 2 ~ 2e-7, which
        # rounds down to 0 on the 2^-16 grid, and theta = -60 a q that
        # rounds up to 1
        config = self._write_config(
            workspace, mechanism="THE", epsilon=0.5, params={"the_theta": theta}
        )
        before = sorted(workspace.iterdir())
        argv = ["simulate", "--config", config, "--out", workspace / "r.json",
                "--reports-out", workspace / "reports.jsonl"]
        code, _, stderr = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert stderr.startswith("config error: THE cannot randomize") and named in stderr
        assert sorted(workspace.iterdir()) == before

    def test_a_failed_round_leaves_no_trace(self, workspace, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_reports", fail)
        config = self._write_config(workspace)
        before = sorted(workspace.iterdir())
        argv = ["simulate", "--config", config, "--out", workspace / "r.json",
                "--reports-out", workspace / "reports.jsonl"]
        assert run_cli(argv, capsys)[0] == EXIT_IO
        assert sorted(workspace.iterdir()) == before

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

    # sha256 of each output of the pinned sweep below; a change to any
    # mechanism's sampler, statistic or decoder that moves a seeded estimate
    # shows here
    SWEEP_SHA256 = {
        "results.jsonl": "86b7288b4f6fb97531268bfbc87fe66f9d953162ff583e49dd587e3ffd67777d",
        "summary.csv": "24265f54a474b15b177865b0fe9dd4df92ba166c3f65fce36fb34336e2a77545",
        "zone_stats.csv": "78704ddbcfe1e2aa3d280fa4f229bd8da490365641b63aa6675f2fdd9bd62d7d",
    }
    # sha256 of each mechanism's lines of results.jsonl in the same sweep,
    # so a change that moves one mechanism shows which
    RESULTS_SHA256 = {
        "OLH": "78af3ba04ebf673e8bb9b6c1c5be2a6949e669916e2fc83997c557b3f04e3975",
        "OUE": "0be6751df6c8f5d093242ab83a082dba43eccba8e0a04dc8f3b2d42da6de1de5",
        "THE": "fb1d8fbf313841146b94cb2bdbbd6a0ce94bb5f609fa2906d11de76e76b78a97",
        "HR": "f09e96079832cea4c2e741ac523f1ab50fbe6f8fae913355a7376d353bcbca72",
        "CMS": "e95242c135eb450bc87a76ed066a516e90927fee12f5ad63a0d13eececfdddb3",
        "RAPPOR": "002248a2d043fdee71d72573855dc51dbbb1e74acbe38ec9fa4fc65792b9a416",
    }

    def test_seeded_sweep_outputs_are_pinned(self, workspace, capsys):
        # every mechanism on the paper's eight-zone crowd of 354 users
        config = self._write_config(
            workspace,
            mechanisms=list(MECHANISMS),
            epsilons=[0.5, 1.0, 2.0],
            seed=11,
            population={"counts": [6, 9, 11, 17, 17, 81, 88, 125]},
        )
        out = workspace / "run"
        assert run_cli(["sweep", "--config", config, "--out", out], capsys)[0] == EXIT_OK
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in self.SWEEP_SHA256
        }
        lines = {}
        for line in (out / "results.jsonl").read_bytes().splitlines(keepends=True):
            lines.setdefault(json.loads(line)["mechanism"], []).append(line)
        per_mechanism = {
            mechanism: hashlib.sha256(b"".join(own)).hexdigest()
            for mechanism, own in lines.items()
        }
        assert per_mechanism == self.RESULTS_SHA256
        assert digests == self.SWEEP_SHA256

    @pytest.mark.parametrize(
        "flag, config_value", [("0", None), ("-3", None), (None, 0)]
    )
    def test_workers_below_one_are_config_errors(self, workspace, capsys, flag, config_value):
        overrides = {} if config_value is None else {"workers": config_value}
        config = self._write_config(workspace, **overrides)
        argv = ["sweep", "--config", config, "--out", workspace / "run"]
        if flag is not None:
            argv += ["--workers", flag]
        code, _, stderr = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert "config error" in stderr and "workers" in stderr
        assert not (workspace / "run").exists()

    def test_a_budget_below_a_mechanisms_lane_grid_is_a_config_error(self, workspace, capsys):
        # OLH can randomize at eps = 5e-5, CMS on its 2^-16 grid cannot:
        # the whole grid is refused before any round runs
        config = self._write_config(
            workspace, mechanisms=["OLH", "CMS"], epsilons=[1.0, 5e-5]
        )
        code, _, stderr = run_cli(["sweep", "--config", config, "--out", workspace / "run"], capsys)
        assert code == EXIT_USAGE
        assert stderr.startswith("config error: CMS") and "must exceed" in stderr
        assert not (workspace / "run").exists()

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

    @pytest.mark.parametrize("damage", ["fractional_zone", "missing_m", "scalar_aps"])
    def test_bad_zone_table_is_a_data_error(self, workspace, capsys, damage):
        table = build_table(workspace, capsys)
        payload = json.loads(table.read_text(encoding="utf-8"))
        if damage == "fractional_zone":
            payload["zones"][-1]["zone"] += 0.5
        elif damage == "missing_m":
            del payload["m"]
        else:
            payload["zones"][0]["aps"] = 0
        table.write_text(json.dumps(payload), encoding="utf-8")
        config = self._write_config(
            workspace,
            population={
                "fingerprints": str(workspace / "fingerprints.csv"),
                "schema": str(workspace / "schema.json"),
                "table": str(table),
            },
        )
        code, _, stderr = run_cli(
            ["sweep", "--config", config, "--out", workspace / "run"], capsys
        )
        assert code == EXIT_DATA
        assert "bad zone table" in stderr

    def test_fingerprints_of_another_width_are_a_data_error(self, workspace, capsys):
        table = workspace / "table4.json"
        table.write_text(
            '{"n_aps": 4, "m": 2, "zones": [{"aps": [0, 1], "zone": 0}]}',
            encoding="utf-8",
        )
        config = self._write_config(
            workspace,
            population={
                "fingerprints": str(workspace / "fingerprints.csv"),
                "schema": str(workspace / "schema.json"),
                "table": str(table),
            },
        )
        code, _, stderr = run_cli(
            ["sweep", "--config", config, "--out", workspace / "run"], capsys
        )
        assert code == EXIT_DATA
        assert "rssi length 3 does not match AP count 4" in stderr
        assert "Traceback" not in stderr

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


BASE_CONFIGS = {
    "simulate": {
        "mechanism": "OUE",
        "epsilon": 1.0,
        "population": {"counts": [30, 20, 10]},
        "seed": 9,
    },
    "sweep": {
        "mechanisms": ["OLH", "CMS"],
        "epsilons": [0.5, 2.0],
        "trials": 2,
        "seed": 4,
        "population": {"counts": [30, 20, 10]},
    },
}

MALFORMED_CONFIGS = [
    # (command, config changes (None deletes the key), extra flags, env seed)
    ("sweep", {"workers": "two"}, [], None),
    ("sweep", {"workers": True}, [], None),
    ("sweep", {"workers": 1.5}, [], None),
    ("sweep", {"seed": "abc"}, [], None),
    ("sweep", {"seed": 1.9}, [], None),
    ("sweep", {"seed": True}, [], None),
    ("sweep", {"seed": -1}, [], None),
    ("sweep", {}, ["--seed", "-1"], None),
    ("sweep", {"seed": None}, [], "-1"),
    ("simulate", {}, ["--seed", "-2"], None),
    ("sweep", {"trials": 1.7}, [], None),
    ("sweep", {"trials": True}, [], None),
    ("sweep", {"trials": "3"}, [], None),
    ("sweep", {"epsilons": ["a"]}, [], None),
    ("sweep", {"epsilons": "12"}, [], None),
    ("sweep", {"epsilons": [True]}, [], None),
    ("sweep", {"epsilons": 2.0}, [], None),
    ("sweep", {"epsilons": [1.0, float("inf")]}, [], None),
    ("sweep", {"mechanisms": "OLH"}, [], None),
    ("sweep", {"mechanisms": None}, [], None),
    ("sweep", {"population": {"counts": "ab"}}, [], None),
    ("sweep", {"population": {"counts": 7}}, [], None),
    ("sweep", {"population": {"counts": [3.7, 4]}}, [], None),
    ("sweep", {"population": {"counts": [True, 4]}}, [], None),
    ("simulate", {"epsilon": "x"}, [], None),
    ("simulate", {"epsilon": True}, [], None),
    ("simulate", {"epsilon": [1.0]}, [], None),
    ("sweep", {"params": {"cms_m": 1}}, [], None),
    ("sweep", {"params": {"cms_k": 1.5}}, [], None),
    ("sweep", {"params": {"cms_k": "8"}}, [], None),
    ("sweep", {"params": {"rappor_k": True}}, [], None),
    ("simulate", {"mechanism": "THE", "params": {"the_theta": float("nan")}}, [], None),
    ("simulate", {"params": {"the_theta": "1"}}, [], None),
]


def _case_id(case) -> str:
    command, changes, flags, env_seed = case
    env = [f"{SEED_ENV}={env_seed}"] if env_seed else []
    return " ".join([command, json.dumps(changes), *flags, *env])


@pytest.mark.parametrize(
    "command, changes, flags, env_seed",
    MALFORMED_CONFIGS,
    ids=[_case_id(case) for case in MALFORMED_CONFIGS],
)
def test_malformed_config_is_a_config_error(
    workspace, capsys, monkeypatch, command, changes, flags, env_seed
):
    cfg = dict(BASE_CONFIGS[command], **changes)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    config = workspace / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    if env_seed is None:
        monkeypatch.delenv(SEED_ENV, raising=False)
    else:
        monkeypatch.setenv(SEED_ENV, env_seed)
    out = workspace / "out"
    code, _, stderr = run_cli(
        [command, "--config", config, "--out", out, *flags], capsys
    )
    assert code == EXIT_USAGE, stderr
    assert "config error" in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


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
        config = TestSweep()._write_config(workspace)
        out = workspace / "run"
        assert run_cli(["sweep", "--config", config, "--out", out], capsys)[0] == EXIT_OK
        lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        # the third line is not JSON, not an object, or has a field of the
        # wrong type
        for damage in (
            "this is not json",
            "[1, 2]",
            json.dumps(dict(record, epsilon="x")),
            json.dumps(dict(record, metrics=None)),
        ):
            results = workspace / "results.jsonl"
            text = "\n".join(lines[:2] + [damage] + lines[3:]) + "\n"
            results.write_text(text, encoding="utf-8")
            code, _, stderr = run_cli(
                ["summarize", "--results", results, "--out", workspace / "s.csv"],
                capsys,
            )
            assert code == EXIT_DATA, damage
            assert "data error: line 3 " in stderr
            assert "Traceback" not in stderr
            assert not (workspace / "s.csv").exists()

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
