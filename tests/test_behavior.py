import math
import warnings

import numpy as np
import pytest

from pacope.behavior import (
    FinitePolicyClass,
    estimate_behavior,
    finite_policy_class,
    mle_policy,
    pacopp_unknown,
)
from pacope.calibrate import CalibrationDiagnostics, pacopp_known
from pacope.core import GaussianLinearPolicy, LoggedDataset, PacParams, StochasticPolicy, child_rng
from pacope.synthenv import DEFAULT_ENV, sample_logged, weight_error

ENV = DEFAULT_ENV
PE = ENV.target_policy()
PB = ENV.behavior_policy()
PARAMS = PacParams(0.2, 0.1, 0.5)
PROBE = np.linspace(-10.0, 10.0, 41).reshape(-1, 1)


def _given(policy, pe=PE):
    """One-member class: selecting from it takes ``policy`` as given."""
    return finite_policy_class((policy,), pe, PROBE)


class TestMlePolicy:
    def test_selects_truth_against_impostor(self):
        impostor = GaussianLinearPolicy(np.array([0.25]), 5.0, 4.0)
        pclass = FinitePolicyClass((PB, impostor), ratio_bound=10.0)
        picks = sum(
            mle_policy(pclass, sample_logged(200, child_rng(777 + seed, 0))) is PB
            for seed in range(100)
        )
        assert picks >= 99

    def test_singleton_class(self):
        pclass = FinitePolicyClass((PB,), ratio_bound=2.0)
        assert mle_policy(pclass, sample_logged(10, child_rng(1))) is PB

    def test_empty_dataset_ties_to_first(self):
        other = GaussianLinearPolicy(np.array([0.1]), 0.0, 4.0)
        pclass = FinitePolicyClass((other, PB), ratio_bound=10.0)
        assert mle_policy(pclass, LoggedDataset.empty()) is other

    def test_order_invariance(self):
        d = sample_logged(300, child_rng(2))
        shuffled = d.take(np.random.default_rng(3).permutation(len(d)))
        members = tuple(
            GaussianLinearPolicy(np.array([s]), 0.0, 4.0) for s in (0.1, 0.25, 0.4)
        )
        pclass = FinitePolicyClass(members, ratio_bound=10.0)
        assert mle_policy(pclass, d) is mle_policy(pclass, shuffled)

    def test_all_zero_likelihood_is_an_error(self):
        from pacope.core import StochasticPolicy

        class _Nowhere(StochasticPolicy):
            def density(self, contexts, actions):
                return np.zeros(np.asarray(actions).shape[0])

            def sample(self, contexts, rng):
                return np.zeros(np.shape(contexts)[0])

        pclass = FinitePolicyClass((_Nowhere(), _Nowhere()), ratio_bound=1.0)
        with pytest.raises(ValueError, match="zero likelihood"):
            mle_policy(pclass, sample_logged(5, child_rng(4)))


class TestFitGaussianPolicy:
    def test_recovers_behavior_policy(self):
        d = sample_logged(5000, child_rng(88, 0))
        policy, raw_variance = estimate_behavior(d, PE)
        # Oracle: closed-form least squares plus residual variance.
        x1 = np.hstack([np.ones((len(d), 1)), d.contexts])
        w_ols, *_ = np.linalg.lstsq(x1, d.actions, rcond=None)
        resid_var = float(np.mean((d.actions - x1 @ w_ols) ** 2))
        assert policy.slope[0] == pytest.approx(w_ols[1], abs=1e-3)
        assert policy.variance == pytest.approx(resid_var, abs=1e-2)
        assert raw_variance == policy.variance
        assert abs(policy.slope[0] - 0.25) < 0.03
        assert abs(policy.variance - 4.0) < 0.3

    def test_variance_clamp_on_constant_actions(self):
        contexts = np.linspace(-1, 1, 50).reshape(-1, 1)
        d = LoggedDataset(contexts, np.zeros(50), np.zeros(50))
        policy, raw_variance = estimate_behavior(d, PE)
        assert policy.variance == pytest.approx(1.05 * PE.variance)
        assert raw_variance < policy.variance

    def test_two_samples_fit(self):
        # Two samples fit the line exactly, so the variance clamp fires.
        d = LoggedDataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), np.zeros(2))
        policy, raw_variance = estimate_behavior(d, PE)
        assert policy.slope[0] == pytest.approx(1.0, abs=1e-12)
        assert policy.intercept == pytest.approx(0.0, abs=1e-12)
        assert raw_variance < 1e-20
        assert policy.variance == pytest.approx(1.05 * PE.variance)

    def test_normal_equations_and_residual_variance(self):
        # The exact MLE: the residual is orthogonal to the design, and the raw
        # variance is the mean squared residual.
        rng = np.random.default_rng(12)
        contexts = rng.normal(size=(500, 3))
        actions = contexts @ np.array([0.5, -1.0, 2.0]) + 0.3 + rng.normal(size=500)
        d = LoggedDataset(contexts, actions, np.zeros(500))
        policy, raw_variance = estimate_behavior(d, PE)
        x1 = np.hstack([np.ones((500, 1)), contexts])
        resid = actions - x1 @ np.concatenate([[policy.intercept], policy.slope])
        assert np.linalg.norm(x1.T @ resid) <= (
            1e-9 * np.linalg.norm(x1) * np.linalg.norm(actions)
        )
        assert raw_variance == float(np.mean(resid * resid))
        assert policy.variance == raw_variance

    def test_min_norm_weights_for_equal_contexts(self):
        # Every context is 2, so only intercept + 2 * slope is determined; the
        # minimum-norm solution puts it along (1, 2).
        actions = np.array([0.0, 1.0, 5.0, 2.0])
        d = LoggedDataset(np.full((4, 1), 2.0), actions, np.zeros(4))
        policy, raw_variance = estimate_behavior(d, PE)
        mean = actions.mean()
        assert policy.intercept == pytest.approx(mean / 5.0, rel=1e-12)
        assert policy.slope[0] == pytest.approx(2.0 * mean / 5.0, rel=1e-12)
        assert raw_variance == pytest.approx(np.var(actions), rel=1e-12)

    def test_accuracy_under_large_offset(self):
        # Actions offset by 1e6: the fit must match np.polyfit to 1e-6 in
        # every coefficient (1e-12 relative to the offset) and to 1e-9
        # relative in the variance, a tolerance fixed before measuring.
        d = sample_logged(2000, child_rng(90, 0))
        shifted = LoggedDataset(d.contexts, d.actions + 1e6, d.rewards)
        policy, raw_variance = estimate_behavior(shifted, PE)
        slope, intercept = np.polyfit(d.contexts[:, 0], shifted.actions, 1)
        resid = shifted.actions - (slope * d.contexts[:, 0] + intercept)
        assert abs(policy.slope[0] - slope) <= 1e-6
        assert abs(policy.intercept - intercept) <= 1e-6
        assert raw_variance == pytest.approx(float(np.mean(resid * resid)), rel=1e-9)

    def test_too_small(self):
        d = LoggedDataset(np.array([[0.0]]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            estimate_behavior(d, PE)


class TestEstimateBehavior:
    def test_mle_member_is_returned_unclamped(self):
        # A member below the clamp floor comes back as is, and its own
        # variance is the raw variance, so no clamp is reported.
        narrow = GaussianLinearPolicy(np.array([0.25]), 0.0, 0.5 * PE.variance)
        d = sample_logged(50, child_rng(5))
        policy, raw_variance = estimate_behavior(d, PE, FinitePolicyClass((narrow,), 2.0))
        assert policy is narrow
        assert raw_variance == policy.variance

    def test_non_gaussian_estimate_rejected(self):
        class _Laplace(StochasticPolicy):
            # Finite and positive everywhere, so the member is selectable.
            def density(self, contexts, actions):
                return 0.5 * np.exp(-np.abs(np.asarray(actions, dtype=float)))

        pclass = FinitePolicyClass((_Laplace(),), 2.0)
        with pytest.raises(ValueError, match="Gaussian"):
            estimate_behavior(sample_logged(10, child_rng(6)), PE, pclass)


class TestFinitePolicyClass:
    def test_bound_covers_all_members(self):
        members = (
            PB,
            GaussianLinearPolicy(np.array([0.25]), 1.0, 4.0),
            GaussianLinearPolicy(np.array([0.25]), 0.0, 6.0),
        )
        actions = np.linspace(-15, 15, 41)
        pclass = finite_policy_class(members, PE, PROBE)
        for member in members:
            ratio = PE.density(PROBE, actions) / member.density(PROBE, actions)
            assert np.all(ratio <= pclass.ratio_bound * (1 + 1e-12))

    def test_non_empty_required(self):
        with pytest.raises(ValueError):
            FinitePolicyClass((), ratio_bound=2.0)


def _drawn_weight_error(pbhat, d):
    """Mean of ``|w_hat - w|`` over the logged draws ``d``, and its standard error."""
    num = PE.density(d.contexts, d.actions)
    values = np.abs(num / pbhat.density(d.contexts, d.actions) - num / PB.density(d.contexts, d.actions))
    return float(values.mean()), float(values.std()) / math.sqrt(len(d))


class TestEstimateWeightError:
    def test_exact_policy_gives_zero(self):
        assert weight_error(PB) == 0.0

    def test_matches_quadrature_oracle(self):
        # Variance-mismatched estimate; oracle by Gauss-Hermite quadrature
        # of |w_hat - w| against the logging law.
        pbhat = GaussianLinearPolicy(np.array([0.25]), 0.0, 6.0)
        xs, ws = np.polynomial.hermite_e.hermegauss(201)
        node_w = ws / ws.sum()
        total = 0.0
        for si, swi in zip(2.0 * xs, node_w):
            a = si / 4 + 2.0 * xs
            ctx = np.full((a.size, 1), si)
            w = PE.density(ctx, a) / PB.density(ctx, a)
            w_hat = PE.density(ctx, a) / pbhat.density(ctx, a)
            total += swi * float(np.sum(node_w * np.abs(w_hat - w)))
        # The oracle's action rule runs across the kinks of |w_hat - w| where
        # pi_b = pbhat, which limits it to about 0.2% (+0.22% at 101 nodes,
        # -0.19% at 201).
        assert weight_error(pbhat) == pytest.approx(total, rel=5e-3)

    def test_matches_drawn_weight_error(self):
        # One Gaussian estimate with another slope and a narrower variance,
        # and every member of the default finite class (one has the true
        # variance, so the quadratic in the action is linear).
        from pacope.bench import default_finite_class

        d = sample_logged(10**6, child_rng(31, 0))
        estimates = (GaussianLinearPolicy(np.array([0.3]), 0.1, 3.5),)
        for pbhat in estimates + default_finite_class(ENV).policies:
            drawn, se = _drawn_weight_error(pbhat, d)
            assert abs(weight_error(pbhat) - drawn) <= 3 * se

    @pytest.mark.parametrize("pbhat", [
        GaussianLinearPolicy(np.array([0.25]), 0.0, 0.5),
        GaussianLinearPolicy(np.array([100.0]), 0.0, 1.05),
    ], ids=["non-positive-precision", "overflow"])
    def test_unbounded_weight_error_is_inf_without_warning(self, pbhat):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weight_error(pbhat) == math.inf


class TestPacoppUnknown:
    def test_accept_all_case_matches_known_pipeline_exactly(self):
        # With pi_e = pi_b forced as the estimate, the ratio is one, both
        # algorithms accept every sample, and their split/fit/threshold
        # stages coincide exactly.
        d = sample_logged(1000, child_rng(40, 0))
        unknown = pacopp_unknown(d, PB, PARAMS, child_rng(40, 1), _given(PB, pe=PB))
        known = pacopp_known(d, PB, PB, PARAMS, child_rng(40, 1))
        assert unknown.threshold == known.threshold
        assert unknown.diagnostics.n_rs == known.diagnostics.n_rs == 1000
        grid = np.linspace(-4, 4, 33)
        assert np.array_equal(
            unknown.interval_batch(grid)[0], known.interval_batch(grid)[0]
        )

    def test_forced_truth_keeps_pac_validity(self):
        # Estimated-policy pipeline with the true policy plugged in: the
        # guarantee of the known-policy analysis applies to the exact
        # miscoverage (80 runs, 3 sigma).
        from pacope.synthenv import exact_interval_metrics

        hits = 0
        runs = 80
        pclass = _given(PB)
        for seed in range(runs):
            d = sample_logged(2000, child_rng(6000 + seed, 0))
            pred = pacopp_unknown(d, PE, PARAMS, child_rng(6000 + seed, 1), pclass)
            miss, _ = exact_interval_metrics(pred.model.w_lo, pred.model.w_up, pred.threshold)
            hits += miss <= PARAMS.epsilon
        assert hits / runs >= 0.9 - 3 * math.sqrt(0.09 / runs)

    def test_empty_dataset_trivial(self):
        expected = CalibrationDiagnostics(
            n_rs=0, m_cal=0, k=-1, tie_flag=False, weight_violations=0, bound=1.0,
        )
        for dim in (1, 2):
            pe = GaussianLinearPolicy(np.zeros(dim), 0.0, 1.0)
            pred = pacopp_unknown(LoggedDataset.empty(dim), pe, PARAMS, child_rng(0))
            assert pred.diagnostics == expected
            assert pred.model.context_dim == dim
            iv = pred.predict(np.zeros(dim))
            assert iv.lo == -math.inf and iv.hi == math.inf

    def test_gaussian_estimate_records_clamp(self):
        contexts = np.linspace(-1, 1, 200).reshape(-1, 1)
        d = LoggedDataset(contexts, np.zeros(200), np.zeros(200))
        pred = pacopp_unknown(d, PE, PARAMS, child_rng(41))
        assert pred.diagnostics.variance_clamped


class TestTheorem5Frequency:
    def test_coverage_within_estimated_weight_error(self):
        # Fraction of runs with miscoverage <= eps + estimated weight error
        # must respect the nominal confidence (500 runs, 3-sigma slack).
        from pacope.bench import BenchConfig, run_unknown_sweep

        cfg = BenchConfig(runs=500, n_jobs=2)
        sweep = run_unknown_sweep(cfg, 20260810, method="gaussian")
        miscoverage = np.array([t.miscoverage for t in sweep.trials])
        delta_w = np.array([t.delta_w_hat for t in sweep.trials])
        assert np.all(np.isfinite(delta_w))
        freq = float(np.mean(miscoverage <= 0.2 + delta_w))
        assert freq >= 0.9 - 3 * math.sqrt(0.09 / 500)
