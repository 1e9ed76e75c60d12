import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pacope.behavior import pacopp_unknown
from pacope.bench import (
    BenchConfig,
    TrialReport,
    check_theorem_bounds,
    figure1_trials_table,
    run_figure1,
    run_figure2,
    run_theorem4_convergence,
    run_unknown_sweep,
    simulate_trial,
    _TAG_FIGURE2,
    _TAG_UNKNOWN,
    _predictor_metrics,
    _symdiff_finite,
)
from pacope.calibrate import CalibratedPredictor, CalibrationDiagnostics
from pacope.core import PacParams, PredictionInterval, TargetDataset, child_rng
from pacope.quantile import QuantilePairModel
from pacope.synthenv import (
    oracle_quantiles,
    sample_logged,
    sample_target,
    symmetric_difference_measure,
)

SMALL = BenchConfig(
    n=400,
    runs=8,
    test_points=500,
    epochs=150,
    n_grid=(200, 400),
    delta_eps_grid=(0.05, 1.0),
    copp_mc_samples=8,
    copp_grid_size=40,
    length_subsample=20,
    theorem4_n_grid=(200, 400),
    theorem4_runs=3,
    theorem4_contexts=50,
    policy_epochs=200,
)


class TestEvaluateMiscoverage:
    def test_oracle_interval_hits_nominal_rate(self):
        test = sample_target(100000, child_rng(2))
        lo = oracle_quantiles(test.contexts, 0.1)
        up = oracle_quantiles(test.contexts, 0.9)
        miss = float(np.mean((test.rewards < lo) | (test.rewards > up)))
        assert abs(miss - 0.2) < 0.012


class TestPredictorMetrics:
    def test_empty_intervals_have_length_zero(self):
        # Band [-s, s], collapsed to 0 for s < 0 by the crossing fix, with
        # threshold -0.5: empty below s = 0.5, of length 2 s - 1 above it.
        model = QuantilePairModel(np.array([0.0, -1.0]), np.array([0.0, 1.0]), (0.1, 0.9))
        diag = CalibrationDiagnostics(20, 10, 0, False, 0, False, 2.0)
        pred = CalibratedPredictor(model, -0.5, PacParams(0.2, 0.5, 0.5), diag)
        test = TargetDataset(np.array([-3.0, -0.5, 0.0, 0.25, 2.0]), np.zeros(5))
        miscoverage, length = _predictor_metrics(pred, test)
        assert miscoverage == 0.8
        assert length == pytest.approx(3.0 / 5)


class TestFigure1:
    def test_deterministic_rerun(self):
        a = run_figure1(SMALL, 99)
        b = run_figure1(SMALL, 99)
        assert a.rows == b.rows
        assert a.trials == b.trials

    def test_parallel_matches_serial(self):
        serial = run_figure1(SMALL, 99)
        parallel = run_figure1(replace(SMALL, n_jobs=2), 99)
        assert serial.rows == parallel.rows

    def test_single_run_frequency_is_indicator(self):
        table = run_figure1(replace(SMALL, runs=1), 5)
        for freq in table.column("band_freq"):
            assert freq in (0.0, 1.0)

    def test_aggregate_recomputes_from_trials_csv(self, tmp_path):
        table = run_figure1(SMALL, 99)
        path = tmp_path / "trials.csv"
        figure1_trials_table(table).write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "n,run,miscoverage,mean_length,trivial_flag"
        parsed = [line.split(",") for line in lines[1:]]
        for n, de, runs, freq, _ in table.rows:
            l_hat = np.array([float(row[2]) for row in parsed if int(row[0]) == n])
            recomputed = float(np.mean((l_hat > SMALL.epsilon - de) & (l_hat <= SMALL.epsilon)))
            assert recomputed == freq

    def test_stderr_formula(self):
        table = run_figure1(SMALL, 99)
        for _, _, runs, freq, stderr in table.rows:
            assert stderr == math.sqrt(freq * (1 - freq) / runs)


class TestFigure2:
    def test_rows_and_determinism(self, tmp_path):
        cfg = replace(SMALL, runs=3)
        a = run_figure2(cfg, 7)
        b = run_figure2(cfg, 7)
        # Rows carry NaN deltas for the non-PAC methods, so determinism is
        # asserted on the serialized tables.
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(str(p1))
        b.write_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        methods = {row[0] for row in a.rows}
        assert methods == {"PACOPP", "COPP-RS", "COPP"}
        assert len(a.rows) == 3 * 6
        # COPP does not rejection-sample, so it has no violations to count.
        assert all(t.weight_violations == 0 for t in a.trials if t.method == "COPP")

    def test_pac_rows_match_pacopp_unknown(self):
        # Figure 2 and pacopp_unknown run one path: the PAC row at
        # config.delta is the pipeline's predictor on that run's streams.
        cfg = replace(SMALL, runs=2)
        table = run_figure2(cfg, 7)
        for run in range(cfg.runs):
            d = sample_logged(cfg.n, child_rng(7, _TAG_FIGURE2, run, 0), cfg.env)
            pred = pacopp_unknown(
                d, cfg.env.target_policy(), cfg.pac_params(), cfg.policy_fit_config(),
                child_rng(7, _TAG_FIGURE2, run, 2),
            )
            (row,) = [
                t for t in table.trials
                if t.run == run and t.method == "PACOPP" and t.delta == cfg.delta
            ]
            diag = pred.diagnostics
            assert not diag.trivial
            assert row.threshold == pred.threshold
            assert (row.k, row.m_cal, row.n_rs, row.weight_violations) == (
                diag.k, diag.m_cal, diag.n_rs, diag.weight_violations
            )

    def test_overflowing_ratio_bound_gives_trivial_rows(self):
        # At n = 4 the Gaussian fit sees two samples; at seed 11 the ratio
        # bound overflows to inf on runs 1, 3 and 4, and figure 2 then gives
        # the trivial rows that pacopp_unknown gives on the same data.
        cfg = BenchConfig(n=4, runs=6, test_points=200, length_subsample=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_figure2(cfg, 11)
        assert len(table.trials) == 6 * cfg.runs
        assert all(t.trivial and t.n_rs == 0 and t.k == -1 for t in table.trials)
        overflowed = []
        for run in range(cfg.runs):
            pred = pacopp_unknown(
                sample_logged(cfg.n, child_rng(11, _TAG_FIGURE2, run, 0), cfg.env),
                cfg.env.target_policy(), cfg.pac_params(), cfg.policy_fit_config(),
                child_rng(11, _TAG_FIGURE2, run, 2),
            )
            assert pred.diagnostics.trivial
            if math.isinf(pred.diagnostics.bound):
                overflowed.append(run)
        assert overflowed == [1, 3, 4]

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_too_little_data_gives_trivial_rows(self, n):
        # Below four samples the Gaussian fit has fewer than two training
        # samples; figure 2 gives the trivial rows pacopp_unknown gives.
        cfg = BenchConfig(n=n, runs=2, test_points=200, length_subsample=5)
        table = run_figure2(cfg, 11)
        assert len(table.trials) == 6 * cfg.runs
        assert all(t.trivial and t.n_rs == 0 and t.k == -1 for t in table.trials)
        for run in range(cfg.runs):
            pred = pacopp_unknown(
                sample_logged(n, child_rng(11, _TAG_FIGURE2, run, 0), cfg.env),
                cfg.env.target_policy(), cfg.pac_params(), cfg.policy_fit_config(),
                child_rng(11, _TAG_FIGURE2, run, 2),
            )
            assert pred.diagnostics.trivial and pred.diagnostics.n_rs == 0

    def test_threshold_monotone_in_delta_per_run(self):
        table = run_figure2(replace(SMALL, runs=4), 7)
        by_run: dict[int, dict[float, float]] = {}
        for t in table.trials:
            if t.method == "PACOPP":
                by_run.setdefault(t.run, {})[t.delta] = t.threshold
        for thresholds in by_run.values():
            assert thresholds[0.01] >= thresholds[0.1] >= thresholds[0.25] >= thresholds[0.5]

    def test_csv_has_empty_delta_for_non_pac_rows(self, tmp_path):
        table = run_figure2(replace(SMALL, runs=2), 7)
        path = tmp_path / "figure2.csv"
        table.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "method,delta,run,coverage,mean_length,trivial_flag"
        for line in lines[1:]:
            method, delta = line.split(",")[:2]
            assert (delta == "") == (method in ("COPP", "COPP-RS"))


class TestBounds:
    def test_rows_pass_and_flag_vacuous(self):
        table = check_theorem_bounds(replace(SMALL, runs=20), 31)
        assert [row[0] for row in table.rows] == list(SMALL.n_grid)
        for n, freq, lower, upper, vacuous, passed in table.rows:
            assert passed
            # Desk-scale n with B=2 makes both sides vacuous.
            assert vacuous and lower < 0.0 and upper > 1.0

    def test_shares_trial_streams_with_figure1(self):
        fig1 = run_figure1(SMALL, 99)
        bounds = check_theorem_bounds(SMALL, 99)
        assert fig1.trials == bounds.trials


class TestTheorem4:
    def test_symdiff_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        lo1, hi1 = np.sort(rng.uniform(-5, 5, (2, 40)), axis=0)
        lo2, hi2 = np.sort(rng.uniform(-5, 5, (2, 40)), axis=0)
        batch = _symdiff_finite(lo1, hi1, lo2, hi2)
        for i in range(40):
            scalar = symmetric_difference_measure(
                PredictionInterval(lo1[i], hi1[i]), PredictionInterval(lo2[i], hi2[i])
            )
            assert batch[i] == pytest.approx(scalar, abs=1e-12)

    def test_identical_intervals_measure_zero(self):
        contexts = np.linspace(-3, 3, 11)
        lo = oracle_quantiles(contexts, 0.1)
        up = oracle_quantiles(contexts, 0.9)
        assert np.all(_symdiff_finite(lo, up, lo, up) == 0.0)

    def test_report_shape(self):
        table = run_theorem4_convergence(SMALL, 13)
        assert [row[0] for row in table.rows] == list(SMALL.theorem4_n_grid)
        for _, runs, contexts, n_trivial, median in table.rows:
            assert runs == SMALL.theorem4_runs
            assert n_trivial >= 0
            assert median >= 0.0


class TestUnknownSweep:
    def test_gaussian_and_mle_methods_run(self):
        cfg = replace(SMALL, runs=3, weight_error_mc=2000)
        for method in ("gaussian", "mle"):
            table = run_unknown_sweep(cfg, 17, method=method)
            assert len(table.trials) == 3
            for t in table.trials:
                assert 0.0 <= t.miscoverage <= 1.0
                assert np.isfinite(t.delta_w_hat)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            run_unknown_sweep(SMALL, 17, method="nn")

    def test_weight_error_reported_whenever_a_policy_is_estimated(self):
        # At n = 3 the mle estimator still selects a member, so the weight
        # error is reported; the Gaussian fit has too little data, so not.
        cfg = BenchConfig(n=3, runs=2, test_points=200, weight_error_mc=500)
        mle = run_unknown_sweep(cfg, 17, method="mle")
        gaussian = run_unknown_sweep(cfg, 17, method="gaussian")
        assert all(t.trivial and np.isfinite(t.delta_w_hat) for t in mle.trials)
        assert all(t.trivial and math.isnan(t.delta_w_hat) for t in gaussian.trials)

    def test_overflowing_ratio_bound_gives_trivial_rows(self):
        # Two training samples give wild Gaussian fits; on runs 1 and 2 the
        # ratio bound overflows to inf, so nothing can be accepted.
        cfg = BenchConfig(n=4, runs=6, weight_error_mc=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_unknown_sweep(cfg, 11, "gaussian")
        assert len(table.trials) == 6
        assert all(t.trivial and t.n_rs == 0 for t in table.trials)
        bounds = [
            pacopp_unknown(
                sample_logged(cfg.n, child_rng(11, _TAG_UNKNOWN, 0, run, 0), cfg.env),
                cfg.env.target_policy(), cfg.pac_params(), cfg.policy_fit_config(),
                child_rng(11, _TAG_UNKNOWN, 0, run, 1),
            ).diagnostics.bound
            for run in range(cfg.runs)
        ]
        assert [math.isinf(b) for b in bounds].count(True) == 2


class TestSimulate:
    def test_known_trial_report(self):
        report = simulate_trial(replace(SMALL, n=2000), 1, algo="known")
        assert 0.0 <= report.miscoverage <= 1.0
        assert math.isfinite(report.mean_length)
        assert not report.trivial

    def test_unknown_trial_report(self):
        report = simulate_trial(SMALL, 1, algo="unknown")
        assert 0.0 <= report.miscoverage <= 1.0


class TestConfig:
    def test_from_mapping_round_trip(self):
        cfg = BenchConfig.from_mapping({
            "runs": "7",
            "n": "300",
            "epsilon": "0.25",
            "n_grid": "100,200",
            "env_mixture_weights": "0.5,0.5",
            "env_component_variances": "1,9",
        })
        assert cfg.runs == 7 and cfg.n == 300
        assert cfg.n_grid == (100, 200)
        assert cfg.env.mixture_weights == (0.5, 0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            BenchConfig.from_mapping({"bogus": "1"})

    def test_ignored_epoch_keys_accepted(self):
        # The benchmark's tiny config.txt still sets both epoch keys, and its
        # method_compare workload still passes copp_mc_samples.
        cfg = BenchConfig.from_mapping(
            {"epochs": "60", "policy_epochs": "60", "copp_mc_samples": "5"}
        )
        assert (cfg.epochs, cfg.policy_epochs, cfg.copp_mc_samples) == (60, 60, 5)
        assert cfg.copp_config() == BenchConfig().copp_config()

    @pytest.mark.parametrize("key", ["learning_rate", "hidden_width", "model_kind"])
    def test_quantile_network_keys_rejected(self, key):
        with pytest.raises(ValueError, match="unknown config key"):
            BenchConfig.from_mapping({key: "1"})

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(runs=0)
        with pytest.raises(ValueError):
            BenchConfig(epsilon=1.5)
        for name in ("length_subsample", "theorem4_contexts", "theorem4_runs"):
            for value in (0, -5):
                with pytest.raises(ValueError, match=name):
                    BenchConfig(**{name: value})

    def test_trial_report_validation(self):
        with pytest.raises(ValueError):
            TrialReport(
                method="X", run=0, n=1, epsilon=0.2, delta=0.1, gamma=0.5,
                miscoverage=1.5, mean_length=1.0, trivial=False, threshold=0.0,
                n_rs=0, m_cal=0, k=-1, tie_flag=False, weight_violations=0,
            )
