import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from pacope import bench
from pacope.baselines import copp_calibrate, copp_sets, fit_reward_model
from pacope.behavior import VARIANCE_MARGIN, estimate_behavior, pacopp_unknown, rs_split_unknown
from pacope.bench import (
    FIGURE1_HEADER,
    AggregateTable,
    BenchConfig,
    TrialReport,
    bounds_table,
    default_finite_class,
    figure1_trials_table,
    run_figure1,
    run_figure2,
    run_theorem4_convergence,
    run_unknown_sweep,
    simulate_trial,
    _TAG_FIGURE2,
    _TAG_UNKNOWN,
    _copp_metrics,
    _known_predictor,
    _predictor_metrics,
    _symdiff_finite,
    _theorem4_measure,
    _theorem4_trial,
)
from pacope.calibrate import (
    CalibratedPredictor,
    CalibrationDiagnostics,
    nonconformity,
    split_cp_threshold,
)
from pacope.core import (
    GaussianLinearPolicy,
    PacParams,
    PredictionInterval,
    child_rng,
    split_dataset,
)
from pacope.quantile import QuantilePairModel, fit_quantile_pair
from pacope.synthenv import (
    DEFAULT_ENV,
    exact_interval_metrics,
    oracle_quantiles,
    sample_logged,
    sample_target,
    target_reward_cdf,
)
from test_baselines import copp_accepted
from test_synthenv import symmetric_difference_measure

SMALL = BenchConfig(
    n=400,
    runs=8,
    epochs=150,
    n_grid=(200, 400),
    delta_eps_grid=(0.05, 1.0),
    copp_mc_samples=8,
    theorem4_n_grid=(200, 400),
    theorem4_runs=3,
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
        # threshold -0.5: empty (a sure miss) for S < 0.5 and [1/2 - s, s - 1/2]
        # above, so the mean length is E[(2 S - 1)^+] with 2 S - 1 ~ N(-1, 16).
        model = QuantilePairModel(np.array([0.0, -1.0]), np.array([0.0, 1.0]))
        diag = CalibrationDiagnostics(n_rs=20, m_cal=10, k=0, tie_flag=False, weight_violations=0, bound=2.0)
        pred = CalibratedPredictor(model, -0.5, PacParams(0.2, 0.5, 0.5), diag)
        miscoverage, length = _predictor_metrics(pred, DEFAULT_ENV)
        assert length == pytest.approx(-ndtr(-0.25) + 4.0 * norm.pdf(0.25), rel=1e-12)

        def miss(s):
            return target_reward_cdf(0.5 - s, s) + 1.0 - target_reward_cdf(s - 0.5, s)

        tail, _ = quad(lambda s: miss(s) * norm.pdf(s, scale=2.0), 0.5, np.inf, epsabs=1e-13)
        assert miscoverage == pytest.approx(ndtr(0.25) + tail, abs=1e-10)


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
        for _, _, _, freq, _ in table.rows:
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
        # Figure 2 and pacopp_unknown run one path: the PAC row at each delta
        # is the pipeline's predictor at that delta on that run's streams.
        cfg = replace(SMALL, runs=2)
        table = run_figure2(cfg, 7)
        for run in range(cfg.runs):
            d = sample_logged(cfg.n, child_rng(7, _TAG_FIGURE2, run, 0), cfg.env)
            for delta in cfg.figure2_deltas:
                pred = pacopp_unknown(
                    d, cfg.env.target_policy(), replace(cfg.pac_params(), delta=delta),
                    child_rng(7, _TAG_FIGURE2, run, 2),
                )
                (row,) = [
                    t for t in table.trials
                    if t.run == run and t.method == "PACOPP" and t.delta == delta
                ]
                diag = pred.diagnostics
                assert not diag.trivial
                assert row.threshold == pred.threshold
                assert (row.k, row.m_cal, row.n_rs, row.weight_violations, row.tie_flag) == (
                    diag.k, diag.m_cal, diag.n_rs, diag.weight_violations, diag.tie_flag
                )

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_figure2(replace(SMALL, runs=4), 99)
        parallel = run_figure2(replace(SMALL, runs=4, n_jobs=2), 99)
        # NaN deltas: compare the serialized tables.
        paths = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        serial.write_csv(str(paths[0]))
        parallel.write_csv(str(paths[1]))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_copp_rs_threshold_is_split_cp_of_the_scores(self):
        # COPP-RS reads its threshold off the PAC pass's sorted scores; it is
        # split_cp_threshold of the run's calibration scores at 1 - epsilon.
        cfg = replace(SMALL, runs=3)
        table = run_figure2(cfg, 7)
        for run in range(cfg.runs):
            d = sample_logged(cfg.n, child_rng(7, _TAG_FIGURE2, run, 0), cfg.env)
            split = rs_split_unknown(d, cfg.env.target_policy(), cfg.gamma,
                                     child_rng(7, _TAG_FIGURE2, run, 2))
            model = fit_quantile_pair(split.train, cfg.pac_params())
            scores = nonconformity(model, split.cal.contexts, split.cal.rewards)
            (row,) = [t for t in table.trials if t.run == run and t.method == "COPP-RS"]
            expected = split_cp_threshold(scores, 1.0 - cfg.epsilon)
            assert math.isfinite(expected)
            assert np.float64(row.threshold).tobytes() == np.float64(expected).tobytes()
            assert (row.m_cal, row.tie_flag) == (len(split.cal), np.unique(scores).size < len(scores))

    def test_pac_and_copp_rs_rows_are_exact_metrics(self):
        # Every PAC row and the COPP-RS row report exact_interval_metrics of
        # the run's quantile pair at the row's threshold.
        cfg = replace(SMALL, runs=2)
        table = run_figure2(cfg, 7)
        for run in range(cfg.runs):
            d = sample_logged(cfg.n, child_rng(7, _TAG_FIGURE2, run, 0), cfg.env)
            model = pacopp_unknown(
                d, cfg.env.target_policy(), cfg.pac_params(), child_rng(7, _TAG_FIGURE2, run, 2)
            ).model
            rows = [t for t in table.trials if t.run == run and t.method != "COPP"]
            assert len(rows) == len(cfg.figure2_deltas) + 1
            for t in rows:
                assert (t.miscoverage, t.mean_length) == exact_interval_metrics(
                    model.w_lo, model.w_up, t.threshold, cfg.env
                )

    def test_copp_quadrature_matches_sampled_estimate(self):
        # One fitted calibration. Coverage: the share of 10^6 target pairs
        # that COPP's acceptance rule takes. Length: the accepted share of
        # 10^6 uniform candidates in a window of half-width 20 around each
        # context's band midpoint, times the window's width. The quadrature
        # lies within 3 sigma of both.
        d1, d2 = split_dataset(sample_logged(2000, child_rng(41, 0)), 0.5)
        pe = DEFAULT_ENV.target_policy()
        pbhat, _ = estimate_behavior(d1, pe)
        model = fit_quantile_pair(d1, PacParams(0.2, 0.1, 0.5))
        calib = copp_calibrate(d2, model, fit_reward_model(d1), pbhat, pe)
        coverage, length = _copp_metrics(calib, 0.2, DEFAULT_ENV)

        def accepted(contexts, rewards):
            return copp_accepted(calib, contexts, rewards, 0.2)

        m = 1_000_000
        target = sample_target(m, child_rng(42, 0))
        p = float(np.mean(accepted(target.contexts, target.rewards)))
        assert abs(coverage - p) <= 3.0 * math.sqrt(p * (1.0 - p) / m)

        half = 20.0
        rng = child_rng(42, 1)
        contexts = (2.0 * rng.standard_normal(m)).reshape(-1, 1)
        mid = 0.5 * np.add(*model.quantiles(contexts))
        # The window holds every set, checked at the sampled extremes and a
        # spread of contexts between them.
        probe = np.sort(contexts[:, 0])[np.linspace(0, m - 1, 201).astype(int)]
        sets = copp_sets(calib, probe, 0.2)
        assert np.unique(sets.row).size == probe.size  # no set is empty
        probe_mid = 0.5 * np.add(*model.quantiles(probe))[sets.row]
        assert np.all(sets.lo > probe_mid - half) and np.all(sets.hi < probe_mid + half)
        p = float(np.mean(accepted(contexts, mid + rng.uniform(-half, half, m))))
        assert abs(length - 2.0 * half * p) <= 3.0 * 2.0 * half * math.sqrt(p * (1.0 - p) / m)

    def test_narrow_behavior_estimate_gives_trivial_copp_row(self, monkeypatch):
        # A behavior marginal narrower than the target's makes COPP's sets
        # unbounded: the COPP row is trivial, with infinite length and k = -1.
        narrow = GaussianLinearPolicy(np.array([0.25]), 0.0, 0.5)
        copp_calibrate_ = bench.copp_calibrate
        monkeypatch.setattr(
            bench, "copp_calibrate",
            lambda cal, model, rm, pbhat, pe: copp_calibrate_(cal, model, rm, narrow, pe),
        )
        (row,) = [t for t in run_figure2(replace(SMALL, runs=1), 7).trials if t.method == "COPP"]
        assert row.trivial and row.mean_length == math.inf and row.k == -1
        assert 0.0 <= row.miscoverage <= 1.0

    def test_band_narrower_than_minus_two_tau_has_length_zero(self, monkeypatch):
        # The band [-1, 1 + s] (collapsed below s = -2 by the crossing fix)
        # at threshold -0.5 gives intervals of length 1 + s: empty below
        # s = -1, which counts 0, not a negative width.
        # Figure 2 fits through bench._fit_split and calibrates through
        # bench._calibration_pass, whose sorted scores give COPP-RS's threshold.
        monkeypatch.setattr(bench, "_fit_split", lambda split, params: QuantilePairModel(
            np.array([-1.0, 0.0]), np.array([1.0, 1.0])))
        calibration_pass = bench._calibration_pass

        def at_minus_half(model, split, params, deltas):
            preds, ordered = calibration_pass(model, split, params, deltas)
            return [replace(p, threshold=-0.5) for p in preds], np.full_like(ordered, -0.5)

        monkeypatch.setattr(bench, "_calibration_pass", at_minus_half)
        cfg = replace(SMALL, runs=1)
        table = run_figure2(cfg, 7)
        # E[(1 + S)^+] for S ~ N(0, 4), that is, 1 + 2 Z with Z standard normal.
        expected = ndtr(0.5) + 2.0 * norm.pdf(0.5)
        rows = [t for t in table.trials if t.method != "COPP"]
        assert len(rows) == len(cfg.figure2_deltas) + 1
        for t in rows:
            assert not t.trivial and t.mean_length == pytest.approx(expected, rel=1e-12)

    def test_overflowing_ratio_bound_gives_trivial_rows(self):
        # At n = 4 the Gaussian fit sees two samples; at seed 11 the ratio
        # bound overflows to inf on runs 1, 3 and 4, and figure 2 then gives
        # the trivial rows that pacopp_unknown gives on the same data.
        cfg = BenchConfig(n=4, runs=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_figure2(cfg, 11)
        assert len(table.trials) == 6 * cfg.runs
        assert all(t.trivial and t.n_rs == 0 and t.k == -1 for t in table.trials)
        overflowed = []
        for run in range(cfg.runs):
            pred = pacopp_unknown(
                sample_logged(cfg.n, child_rng(11, _TAG_FIGURE2, run, 0), cfg.env),
                cfg.env.target_policy(), cfg.pac_params(), child_rng(11, _TAG_FIGURE2, run, 2),
            )
            assert pred.diagnostics.trivial
            if math.isinf(pred.diagnostics.bound):
                overflowed.append(run)
        assert overflowed == [1, 3, 4]

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_too_little_data_gives_trivial_rows(self, n):
        # Below four samples the Gaussian fit has fewer than two training
        # samples; figure 2 gives the trivial rows pacopp_unknown gives.
        cfg = BenchConfig(n=n, runs=2)
        table = run_figure2(cfg, 11)
        assert len(table.trials) == 6 * cfg.runs
        assert all(t.trivial and t.n_rs == 0 and t.k == -1 for t in table.trials)
        for run in range(cfg.runs):
            pred = pacopp_unknown(
                sample_logged(n, child_rng(11, _TAG_FIGURE2, run, 0), cfg.env),
                cfg.env.target_policy(), cfg.pac_params(), child_rng(11, _TAG_FIGURE2, run, 2),
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


def fake_figure1(config: BenchConfig, n_misses: int) -> AggregateTable:
    """A figure-1 table whose trials at each ``n`` miss ``epsilon`` in ``n_misses`` of the runs."""
    trials = tuple(
        TrialReport(
            method="PACOPP", run=run, n=n, epsilon=config.epsilon, delta=config.delta,
            gamma=config.gamma, miscoverage=config.epsilon + (0.1 if run < n_misses else -0.1),
            mean_length=1.0, trivial=False, threshold=0.5, n_rs=n // 4, m_cal=n // 8, k=1,
            tie_flag=False, weight_violations=0,
        )
        for n in config.n_grid for run in range(config.runs)
    )
    return AggregateTable(FIGURE1_HEADER, (), trials)


# At n = 10^7 and 200 runs both sides of the bound are informative:
# the band is [0.778, 0.982] (c_band = 184, c_upper = 56.8, 3s = 0.064).
INFORMATIVE = replace(BenchConfig(), n_grid=(10**7,), runs=200)


class TestBounds:
    def test_rows_pass_and_flag_vacuous(self):
        config = replace(SMALL, runs=20)
        table = bounds_table(config, run_figure1(config, 31))
        assert [row[0] for row in table.rows] == list(SMALL.n_grid)
        for n, freq, lower, upper, vacuous, passed in table.rows:
            assert passed
            # Desk-scale n with B=2 makes both sides vacuous.
            assert vacuous and lower < 0.0 and upper > 1.0

    def test_informative_row_fails_when_every_run_misses(self):
        (row,) = bounds_table(INFORMATIVE, fake_figure1(INFORMATIVE, INFORMATIVE.runs)).rows
        n, freq, lower, upper, vacuous, passed = row
        assert 0.0 < lower < upper < 1.0
        assert (n, freq, vacuous, passed) == (10**7, 0.0, False, False)

    def test_informative_row_passes_at_the_nominal_frequency(self):
        misses = round(INFORMATIVE.delta * INFORMATIVE.runs)
        (row,) = bounds_table(INFORMATIVE, fake_figure1(INFORMATIVE, misses)).rows
        n, freq, lower, upper, vacuous, passed = row
        assert freq == pytest.approx(1.0 - INFORMATIVE.delta)
        assert (vacuous, passed) == (False, True)

    def test_runs_no_trials(self, monkeypatch):
        fig1 = run_figure1(SMALL, 99)

        def no_trial(args):
            raise AssertionError("bounds_table ran a trial")

        monkeypatch.setattr(bench, "_known_trial", no_trial)
        table = bounds_table(SMALL, fig1)
        assert table.trials == fig1.trials
        for n, freq, *_ in table.rows:
            l_hat = [t.miscoverage for t in fig1.trials if t.n == n]
            assert freq == np.mean(np.array(l_hat) <= SMALL.epsilon)


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

    def test_empty_fitted_interval_measures_the_oracle_length(self):
        # A negative threshold can give lo1 > hi1, inside or outside C*.
        lo1, hi1 = np.array([0.5, 3.0]), np.array([-0.5, 2.0])
        lo2, hi2 = np.array([-1.0, -1.5]), np.array([1.0, 1.0])
        assert np.array_equal(_symdiff_finite(lo1, hi1, lo2, hi2), hi2 - lo2)

    def test_identical_intervals_measure_zero(self):
        contexts = np.linspace(-3, 3, 11)
        lo = oracle_quantiles(contexts, 0.1)
        up = oracle_quantiles(contexts, 0.9)
        assert np.all(_symdiff_finite(lo, up, lo, up) == 0.0)

    def test_report_shape(self):
        table = run_theorem4_convergence(SMALL, 13)
        assert table.header == ("n", "runs", "n_trivial", "median_measure")
        assert [row[0] for row in table.rows] == list(SMALL.theorem4_n_grid)
        for _, runs, n_trivial, median in table.rows:
            assert runs == SMALL.theorem4_runs
            assert n_trivial >= 0
            assert median >= 0.0

    def test_rows_are_medians_of_figure1_trials(self):
        # Theorem 4 measures the predictors of figure 1's trials at the same n.
        table = run_theorem4_convergence(SMALL, 13)
        figure1 = run_figure1(replace(SMALL, runs=SMALL.theorem4_runs), 13).trials
        for n, _, _, median in table.rows:
            preds = [_known_predictor(SMALL, 13, n, run) for run in range(SMALL.theorem4_runs)]
            assert [_predictor_metrics(p, SMALL.env)[0] for p in preds] == [
                t.miscoverage for t in figure1 if t.n == n
            ]
            assert median == float(np.median([_theorem4_measure(p, SMALL.env) for p in preds]))

    @pytest.mark.parametrize("w_lo, w_up, threshold", [
        ((-2.0, 1.1), (2.5, 1.4), 0.3),
        # Crossing at s = 4, and empty where the band is narrower than 1.
        ((-2.0, 1.5), (2.0, 0.5), -0.5),
        # Crossing at s = 0; the midpoint band carries C beyond it.
        ((0.0, 2.0), (0.0, 0.5), 0.4),
        # Every line has the oracle's slope: no finite knot.
        ((-1.7, 1.25), (1.9, 1.25), 0.1),
    ], ids=["tau-positive", "tau-negative-empty", "crossing-band", "parallel"])
    def test_exact_mean_matches_trapezoid_rule(self, w_lo, w_up, threshold):
        model = QuantilePairModel(np.array(w_lo), np.array(w_up))
        diag = CalibrationDiagnostics(n_rs=20, m_cal=10, k=0, tie_flag=False, weight_violations=0, bound=2.0)
        pred = CalibratedPredictor(model, threshold, PacParams(0.2, 0.1, 0.5), diag)
        s = np.linspace(-40.0, 40.0, 800001)
        lo, hi = pred.interval_batch(s)
        values = _symdiff_finite(lo, hi, oracle_quantiles(s, 0.1), oracle_quantiles(s, 0.9))
        y = values * norm.pdf(s, scale=2.0)
        trapezoid = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(s)))
        assert _theorem4_measure(pred, DEFAULT_ENV) == pytest.approx(trapezoid, abs=1e-8)

    def test_trial_mean_matches_drawn_contexts(self):
        exact = _theorem4_trial((SMALL, 5, 400, 0))
        pred = _known_predictor(SMALL, 5, 400, 0)
        contexts = 2.0 * child_rng(5, 99).standard_normal(10**5)
        lo, hi = pred.interval_batch(contexts)
        values = _symdiff_finite(
            lo, hi, oracle_quantiles(contexts, 0.1), oracle_quantiles(contexts, 0.9)
        )
        se = float(values.std()) / math.sqrt(values.size)
        assert math.isfinite(exact)
        assert abs(exact - float(values.mean())) <= 3 * se


class TestUnknownSweep:
    def test_gaussian_and_mle_methods_run(self):
        cfg = replace(SMALL, runs=3)
        for method in ("gaussian", "mle"):
            table = run_unknown_sweep(cfg, 17, method=method)
            assert len(table.trials) == 3
            for t in table.trials:
                assert 0.0 <= t.miscoverage <= 1.0
                assert np.isfinite(t.delta_w_hat)

    def test_method_validation(self):
        with pytest.raises(ValueError):
            run_unknown_sweep(SMALL, 17, method="nn")

    def test_finite_class_built_once_per_sweep(self, monkeypatch):
        built = []

        def counting(env):
            built.append(env)
            return default_finite_class(env)

        monkeypatch.setattr(bench, "default_finite_class", counting)
        table = run_unknown_sweep(replace(SMALL, runs=3), 17, method="mle")
        assert len(table.trials) == 3 and len(built) == 1

    def test_weight_error_reported_whenever_a_policy_is_estimated(self):
        # At n = 3 the mle estimator still selects a member, so the weight
        # error is reported; the Gaussian fit has too little data, so not.
        cfg = BenchConfig(n=3, runs=2)
        mle = run_unknown_sweep(cfg, 17, method="mle")
        gaussian = run_unknown_sweep(cfg, 17, method="gaussian")
        assert all(t.trivial and np.isfinite(t.delta_w_hat) for t in mle.trials)
        assert all(t.trivial and math.isnan(t.delta_w_hat) for t in gaussian.trials)

    def test_overflowing_ratio_bound_gives_trivial_rows(self):
        # Two training samples give wild Gaussian fits; on runs 1 and 2 the
        # ratio bound overflows to inf, so nothing can be accepted. Four of
        # their weight errors overflow, and are inf with no warning.
        cfg = BenchConfig(n=4, runs=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = run_unknown_sweep(cfg, 11, "gaussian")
        assert len(table.trials) == 6
        assert all(t.trivial and t.n_rs == 0 for t in table.trials)
        assert not any(math.isnan(t.delta_w_hat) for t in table.trials)
        assert [math.isinf(t.delta_w_hat) for t in table.trials].count(True) == 4
        bounds = [
            pacopp_unknown(
                sample_logged(cfg.n, child_rng(11, _TAG_UNKNOWN, 0, run, 0), cfg.env),
                cfg.env.target_policy(), cfg.pac_params(), child_rng(11, _TAG_UNKNOWN, 0, run, 1),
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
        # workloads still pass copp_mc_samples and the figure-2 test-set and
        # grid sizes, whatever their value.
        cfg = BenchConfig.from_mapping({
            "epochs": "60", "policy_epochs": "60", "copp_mc_samples": "5",
            "test_points": "0", "copp_grid_size": "1", "length_subsample": "-3",
        })
        assert (cfg.epochs, cfg.policy_epochs, cfg.copp_mc_samples) == (60, 60, 5)
        assert (cfg.test_points, cfg.copp_grid_size, cfg.length_subsample) == (0, 1, -3)
        ignored = replace(SMALL, runs=1, test_points=0, copp_grid_size=1, length_subsample=-3)
        metrics = [
            [(t.method, t.miscoverage, t.mean_length) for t in run_figure2(c, 7).trials]
            for c in (replace(SMALL, runs=1), ignored)
        ]
        assert metrics[0] == metrics[1]

    @pytest.mark.parametrize("method", ["bogus", "", "Gaussian"])
    def test_finite_class_rejects_unknown_method(self, method):
        with pytest.raises(ValueError, match="method must be 'gaussian' or 'mle'"):
            BenchConfig().finite_class(method)

    def test_finite_class_by_method_and_fixed_margin(self):
        cfg = BenchConfig()
        assert cfg.finite_class("gaussian") is None
        mle, expected = cfg.finite_class("mle"), default_finite_class(cfg.env)
        assert (len(mle), mle.ratio_bound) == (len(expected), expected.ratio_bound)
        # The clamp margin is a class constant, read by the traced benchmark run.
        assert cfg.policy_margin == VARIANCE_MARGIN == 0.05
        assert "policy_margin" not in {f.name for f in fields(BenchConfig)}

    @pytest.mark.parametrize("key", ["learning_rate", "hidden_width", "model_kind"])
    def test_quantile_network_keys_rejected(self, key):
        with pytest.raises(ValueError, match="unknown config key"):
            BenchConfig.from_mapping({key: "1"})

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(runs=0)
        with pytest.raises(ValueError):
            BenchConfig(epsilon=1.5)
        for value in (0, -5):
            with pytest.raises(ValueError, match="theorem4_runs"):
                BenchConfig(theorem4_runs=value)

    def test_trial_report_validation(self):
        with pytest.raises(ValueError):
            TrialReport(
                method="X", run=0, n=1, epsilon=0.2, delta=0.1, gamma=0.5,
                miscoverage=1.5, mean_length=1.0, trivial=False, threshold=0.0,
                n_rs=0, m_cal=0, k=-1, tie_flag=False, weight_violations=0,
            )
