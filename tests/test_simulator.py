"""Tests for the Monte-Carlo experiment runner.

Covers population sources, config validation, single rounds, sweep
reproducibility across worker counts, summary statistics with hand-checked
per-zone error rates, CSV rendering, and result serialization.
"""
import dataclasses
import io
import math
from concurrent.futures import Future

import numpy as np
import pytest

from zoneldp import simulator
from zoneldp.domain import (
    MECHANISMS,
    Fingerprint,
    FrequencyEstimate,
    SENTINEL_RSSI,
)
from zoneldp.errors import ConfigError
from zoneldp.metrics import metric_report
from zoneldp.oracles import (
    CountMeanSketch,
    Rappor,
    make_mechanism,
    read_reports,
    write_reports,
)
from zoneldp.simulator import (
    CountsPopulation,
    DropCounts,
    ExperimentConfig,
    LookupPopulation,
    MetricRow,
    Summary,
    TrialResult,
    ZoneRow,
    read_results,
    run_round,
    run_sweep,
    summarize,
    summary_to_csv,
    trial_result_from_dict,
    trial_result_to_dict,
    write_results,
    zone_stats_to_csv,
)
from zoneldp.zoning import build_zone_table


def _tiny_table():
    training = [
        Fingerprint(rssi=[-40.0, -45.0, -90.0], location=(0, 0)),
        Fingerprint(rssi=[-90.0, -45.0, -40.0], location=(5, 0)),
    ]
    return build_zone_table(training, m=2), training


class TestCountsPopulation:
    def test_resolve_matches_counts_exactly(self):
        pop = CountsPopulation(counts=(30, 0, 20, 10))
        zones, l_zones, drops = pop.resolve(np.random.default_rng(4))
        assert l_zones == 4
        assert drops == DropCounts()
        assert np.bincount(zones, minlength=4).tolist() == [30, 0, 20, 10]

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            CountsPopulation(counts=())
        with pytest.raises(ConfigError):
            CountsPopulation(counts=(3, -1))
        with pytest.raises(ConfigError):
            CountsPopulation(counts=(0, 0))


class TestLookupPopulation:
    def test_resolve_maps_and_tallies_drops(self):
        table, training = _tiny_table()
        lookups = tuple(
            [Fingerprint(rssi=fp.rssi) for fp in training]
            + [
                # only one AP sensed, below the table's pattern size
                Fingerprint(rssi=[-50.0, SENTINEL_RSSI, SENTINEL_RSSI]),
                # strongest pair never seen in training
                Fingerprint(rssi=[-40.0, -90.0, -45.0]),
            ]
        )
        pop = LookupPopulation(fingerprints=lookups, table=table)
        zones, l_zones, drops = pop.resolve(np.random.default_rng(0))
        assert l_zones == table.n_zones == 2
        assert zones.tolist() == [0, 1]
        assert drops == DropCounts(insufficient_signals=1, unmatched=1)


class TestExperimentConfig:
    def _config(self, **overrides):
        base = dict(
            mechanisms=("OLH",),
            epsilons=(1.0,),
            trials=2,
            seed=0,
            population=CountsPopulation(counts=(5, 5)),
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_rejects_unknown_mechanism(self):
        with pytest.raises(ConfigError):
            self._config(mechanisms=("OLH", "DP-SGD"))

    def test_rejects_empty_grid_axes(self):
        with pytest.raises(ConfigError):
            self._config(mechanisms=())
        with pytest.raises(ConfigError):
            self._config(epsilons=())
        with pytest.raises(ConfigError):
            self._config(epsilons=(1.0, 0.0))

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ConfigError):
            self._config(trials=0)

    def test_fills_parameter_template(self):
        config = self._config(epsilons=(2.0, 0.5))
        assert config.params is not None
        assert config.epsilons == (2.0, 0.5)
        assert isinstance(config.epsilons[0], float)


class TestRunRound:
    def test_empty_population_gives_zero_estimate(self):
        est = run_round([], 4, "OUE", 1.0, rng=np.random.default_rng(0))
        assert est.n_reports == 0
        assert np.array_equal(est.raw, np.zeros(4))

    def test_huge_budget_recovers_exactly(self):
        est = run_round(
            [2, 2, 2], 4, "OLH", 50.0, rng=np.random.default_rng(1)
        )
        assert est.rounded().tolist() == [0, 0, 3, 0]

    def test_collected_reports_reproduce_the_estimate(self):
        # the trace must contain exactly the reports that were aggregated,
        # and asking for it must not change the estimate
        users = [0, 1, 1, 2, 3, 3, 3]
        for mechanism in MECHANISMS:
            plain = run_round(users, 4, mechanism, 1.0, rng=np.random.default_rng(8))
            collected = []
            est = run_round(
                users, 4, mechanism, 1.0, rng=np.random.default_rng(8),
                collect_reports=collected,
            )
            assert np.array_equal(est.raw, plain.raw), mechanism
            assert len(collected) == len(users)
            kwargs = {}
            if mechanism in ("CMS", "RAPPOR"):
                # run_round draws the round's sketch family first
                kwargs["hash_seed"] = int(np.random.default_rng(8).integers(0, 1 << 63))
            oracle = make_mechanism(mechanism, 4, 1.0, **kwargs)
            assert np.array_equal(oracle.aggregate(collected).raw, est.raw), mechanism
            # the JSON-lines trace is exact: read back, it decodes to the same raw
            buffer = io.StringIO()
            write_reports(collected, buffer)
            buffer.seek(0)
            again = oracle.aggregate(list(read_reports(buffer)))
            assert np.array_equal(again.raw, est.raw), mechanism

    @pytest.mark.parametrize(
        "mechanism, cls", [("CMS", CountMeanSketch), ("RAPPOR", Rappor)]
    )
    def test_each_round_draws_its_own_sketch_family(self, monkeypatch, mechanism, cls):
        seeds = []
        init = cls.__init__

        def spy(self, *args, hash_seed=0, **kwargs):
            seeds.append(hash_seed)
            init(self, *args, hash_seed=hash_seed, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
        for seed in (1, 2, 3):
            run_round([0, 1, 2], 3, mechanism, 1.0, rng=np.random.default_rng(seed))
        assert len(set(seeds)) == 3
        assert seeds == [
            int(np.random.default_rng(seed).integers(0, 1 << 63)) for seed in (1, 2, 3)
        ]

    def test_deterministic_for_a_seeded_generator(self):
        for mechanism in MECHANISMS:
            first = run_round(
                [0, 1, 2, 2], 3, mechanism, 1.0, rng=np.random.default_rng(6)
            )
            second = run_round(
                [0, 1, 2, 2], 3, mechanism, 1.0, rng=np.random.default_rng(6)
            )
            assert np.array_equal(first.raw, second.raw), mechanism

    def test_sketch_hash_family_comes_from_the_generator(self):
        # same users, different streams: the sketch table itself changes,
        # so even the noiseless part of the estimate moves
        users = np.repeat(np.arange(6), 50)
        a = run_round(users, 6, "CMS", 1.0, rng=np.random.default_rng(100))
        b = run_round(users, 6, "CMS", 1.0, rng=np.random.default_rng(101))
        assert not np.array_equal(a.raw, b.raw)


class TestRunSweep:
    def _config(self, trials=2, seed=7):
        return ExperimentConfig(
            mechanisms=("OLH", "OUE"),
            epsilons=(0.5, 2.0),
            trials=trials,
            seed=seed,
            population=CountsPopulation(counts=(30, 20, 10)),
        )

    def test_results_come_back_in_grid_order(self):
        results = run_sweep(self._config())
        key = [(r.mechanism, r.epsilon, r.trial) for r in results]
        expected = [
            (mech, eps, trial)
            for mech in ("OLH", "OUE")
            for eps in (0.5, 2.0)
            for trial in range(2)
        ]
        assert key == expected

    def test_population_is_shared_across_the_grid(self):
        results = run_sweep(self._config())
        for r in results:
            assert r.true_counts.tolist() == [30, 20, 10]
            assert r.estimate.n_reports == 60

    def test_same_seed_reproduces_bit_for_bit(self):
        first = run_sweep(self._config())
        second = run_sweep(self._config())
        for a, b in zip(first, second):
            assert np.array_equal(a.estimate.raw, b.estimate.raw)

    def test_different_seed_changes_the_noise(self):
        first = run_sweep(self._config(seed=7))
        second = run_sweep(self._config(seed=8))
        assert any(
            not np.array_equal(a.estimate.raw, b.estimate.raw)
            for a, b in zip(first, second)
        )

    def test_worker_count_does_not_change_results(self):
        config = self._config()
        serial = io.StringIO()
        write_results(run_sweep(config, workers=1), serial)
        parallel = io.StringIO()
        write_results(run_sweep(config, workers=2), parallel)
        assert serial.getvalue() == parallel.getvalue()

    @pytest.mark.parametrize("workers, pool_sizes", [(64, [4]), (3, [3]), (2, [2])])
    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch, workers, pool_sizes):
        sizes = []

        class InlinePool:
            """Records the pool size and runs each task in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", InlinePool)
        config = self._config()  # 2 mechanisms x 2 epsilons
        pooled = io.StringIO()
        write_results(run_sweep(config, workers=workers), pooled)
        assert sizes == pool_sizes
        serial = io.StringIO()
        write_results(run_sweep(config, workers=1), serial)
        assert pooled.getvalue() == serial.getvalue()
        one_cell = dataclasses.replace(config, mechanisms=("OUE",), epsilons=(1.0,))
        run_sweep(one_cell, workers=64)
        assert sizes == pool_sizes  # one cell runs in this process

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            run_sweep(self._config(), workers=workers)

    def test_lookup_population_conserves_users(self):
        table, training = _tiny_table()
        lookups = tuple(
            [Fingerprint(rssi=fp.rssi) for fp in training] * 10
            + [Fingerprint(rssi=[-50.0, SENTINEL_RSSI, SENTINEL_RSSI])]
        )
        config = ExperimentConfig(
            mechanisms=("OUE",),
            epsilons=(1.0,),
            trials=1,
            seed=3,
            population=LookupPopulation(fingerprints=lookups, table=table),
        )
        (result,) = run_sweep(config)
        assert result.diagnostics == DropCounts(insufficient_signals=1, unmatched=0)
        assert int(result.true_counts.sum()) + result.diagnostics.total == len(lookups)


def _crafted_result(mechanism, epsilon, trial, true_counts, rounded_targets):
    true_counts = np.asarray(true_counts, dtype=np.int64)
    raw = np.asarray(rounded_targets, dtype=np.float64)
    return TrialResult(
        mechanism=mechanism,
        epsilon=epsilon,
        trial=trial,
        true_counts=true_counts,
        estimate=FrequencyEstimate.from_raw(raw, int(true_counts.sum())),
        metrics=metric_report(true_counts, raw),
        diagnostics=DropCounts(),
    )


class TestSummarize:
    def test_single_result_collapses_to_its_own_metrics(self):
        result = _crafted_result("OLH", 1.0, 0, [10, 20], [12.0, 17.0])
        summary = summarize([result])
        by_name = {row.metric: row for row in summary.metric_rows}
        assert set(by_name) == {"rmse", "nrmse", "kendall_tau"}
        for row in by_name.values():
            assert row.mechanism == "OLH"
            assert row.mean == row.median == row.q1 == row.q3
        assert by_name["rmse"].mean == pytest.approx(result.metrics.rmse)

    def test_per_zone_error_rates_hand_checked(self):
        # one trial per mechanism against truth [6, 125]; the per-zone
        # statistic adds each mechanism's mean |rounded - true| and takes
        # ceil(total / true): hand-computed, zone 0 collects
        # 8+11+8+11+10+4 = 52 -> ceil(52/6) = 9 and zone 1 collects
        # 4+15+11+9+7+15 = 61 -> ceil(61/125) = 1
        zone0 = [8, 11, 8, 11, 10, 4]
        zone1 = [-4, 15, 11, 9, -7, 15]
        results = [
            _crafted_result(
                mech, 1.0, 0, [6, 125], [6 + zone0[i], 125 + zone1[i]]
            )
            for i, mech in enumerate(MECHANISMS)
        ]
        summary = summarize(results)
        assert summary.zone_rows == (
            ZoneRow(
                epsilon=1.0,
                zone=0,
                true_count=6,
                abs_diff_sum=pytest.approx(52.0),
                rel_error_ceil=9,
            ),
            ZoneRow(
                epsilon=1.0,
                zone=1,
                true_count=125,
                abs_diff_sum=pytest.approx(61.0),
                rel_error_ceil=1,
            ),
        )

    def test_zone_rows_need_a_shared_population(self):
        results = [
            _crafted_result("OLH", 1.0, 0, [10, 20], [11.0, 19.0]),
            _crafted_result("OLH", 1.0, 1, [10, 21], [11.0, 19.0]),
        ]
        assert summarize(results).zone_rows == ()

    def test_zero_truth_zones_are_skipped(self):
        result = _crafted_result("OLH", 1.0, 0, [0, 10], [2.0, 11.0])
        rows = summarize([result]).zone_rows
        assert [row.zone for row in rows] == [1]

    def test_mechanism_rows_follow_canonical_order(self):
        results = [
            _crafted_result("CMS", 1.0, 0, [10, 20], [11.0, 19.0]),
            _crafted_result("OLH", 1.0, 0, [10, 20], [12.0, 18.0]),
        ]
        mechanisms = [row.mechanism for row in summarize(results).metric_rows]
        assert mechanisms == ["OLH"] * 3 + ["CMS"] * 3

    def test_flat_truth_leaves_nrmse_empty(self):
        # a constant truth vector has no range to normalize by
        result = _crafted_result("OLH", 1.0, 0, [10, 10], [11.0, 9.0])
        assert result.metrics.nrmse is None
        by_name = {row.metric: row for row in summarize([result]).metric_rows}
        assert math.isnan(by_name["nrmse"].mean)
        assert not math.isnan(by_name["rmse"].mean)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCsvRendering:
    def test_summary_csv_exact_text(self):
        summary = Summary(
            metric_rows=(
                MetricRow("OLH", 2.0, "rmse", 1.0, 2.0, 0.25, 3.5),
                MetricRow("CMS", 0.5, "kendall_tau", 1.5, 1.0, 0.0, 2.0),
            ),
            zone_rows=(
                ZoneRow(
                    epsilon=0.5,
                    zone=3,
                    true_count=125,
                    abs_diff_sum=0.488,
                    rel_error_ceil=1,
                ),
            ),
        )
        assert summary_to_csv(summary) == (
            "mechanism,epsilon,metric,mean,median,q1,q3\n"
            "OLH,2,rmse,1.000000,2.000000,0.250000,3.500000\n"
            "CMS,0.5,kendall_tau,1.500000,1.000000,0.000000,2.000000\n"
        )
        assert zone_stats_to_csv(summary) == (
            "epsilon,zone,true_count,abs_diff_sum,rel_error_ceil\n"
            "0.5,3,125,0.488000,1\n"
        )

    def test_csv_from_a_real_sweep_has_one_row_per_cell_metric(self):
        config = ExperimentConfig(
            mechanisms=("OLH", "HR"),
            epsilons=(1.0, 3.0),
            trials=2,
            seed=5,
            population=CountsPopulation(counts=(40, 25, 15)),
        )
        summary = summarize(run_sweep(config))
        lines = summary_to_csv(summary).splitlines()
        assert lines[0] == "mechanism,epsilon,metric,mean,median,q1,q3"
        assert len(lines) == 1 + 2 * 2 * 3


class TestSerialization:
    def test_round_trip_preserves_every_field(self):
        config = ExperimentConfig(
            mechanisms=("OLH", "THE"),
            epsilons=(1.0,),
            trials=2,
            seed=11,
            population=CountsPopulation(counts=(25, 25)),  # flat: nrmse is None
        )
        results = run_sweep(config)
        assert all(r.metrics.nrmse is None for r in results)
        buffer = io.StringIO()
        write_results(results, buffer)
        buffer.seek(0)
        back = read_results(buffer)
        assert len(back) == len(results)
        for a, b in zip(results, back):
            assert (a.mechanism, a.epsilon, a.trial) == (b.mechanism, b.epsilon, b.trial)
            assert np.array_equal(a.true_counts, b.true_counts)
            assert np.array_equal(a.estimate.raw, b.estimate.raw)
            assert np.array_equal(a.estimate.clamped, b.estimate.clamped)
            assert a.estimate.n_reports == b.estimate.n_reports
            assert a.metrics == b.metrics
            assert a.diagnostics == b.diagnostics

    def test_dict_form_is_json_plain(self):
        result = _crafted_result("HR", 2.0, 1, [3, 7], [4.0, 6.0])
        data = trial_result_to_dict(result)
        assert data["mechanism"] == "HR"
        assert data["rounded"] == [4, 6]
        assert all(isinstance(v, int) for v in data["true_counts"])
        back = trial_result_from_dict(data)
        assert np.array_equal(back.estimate.raw, result.estimate.raw)

    def test_reader_skips_blank_lines(self):
        result = _crafted_result("OLH", 1.0, 0, [5, 5], [5.0, 5.0])
        buffer = io.StringIO()
        write_results([result], buffer)
        text = buffer.getvalue() + "\n\n"
        back = read_results(io.StringIO(text))
        assert len(back) == 1
