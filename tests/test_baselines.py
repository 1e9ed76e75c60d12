import math
import warnings

import numpy as np
import pytest

from pacope.baselines import (
    CoppCalibration,
    RewardModelGaussian,
    copp_calibrate,
    copp_hull_batch,
    copp_log_weights,
    copp_thresholds,
    fit_reward_model,
)
from pacope.behavior import PolicyFitConfig, estimate_behavior, rs_split_unknown
from pacope.calibrate import nonconformity, split_cp_threshold
from pacope.core import (
    GaussianLinearPolicy,
    LoggedDataset,
    PacParams,
    StochasticPolicy,
    child_rng,
    split_dataset,
)
from pacope.quantile import QuantilePairModel, fit_quantile_pair
from pacope.rejection import rejection_sample
from pacope.synthenv import DEFAULT_ENV, exact_interval_metrics, sample_logged, sample_target

ENV = DEFAULT_ENV
PE = ENV.target_policy()
PB = ENV.behavior_policy()


class _ConstantActionPolicy(StochasticPolicy):
    """A policy that is not Gaussian-linear, which exact COPP weights reject."""

    def __init__(self, value):
        self.value = float(value)

    def density(self, contexts, actions):
        return np.ones(np.asarray(actions).shape[0])

    def sample(self, contexts, rng):
        return np.full(np.shape(contexts)[0], self.value)


def _band_model(lo=-1.0, up=1.0, slope=0.0):
    return QuantilePairModel(np.array([lo, slope]), np.array([up, slope]), (0.1, 0.9))


def _policy(intercept, variance=1e-6):
    return GaussianLinearPolicy(np.array([0.0]), intercept, variance)


def _calibration(scores, log_weights, model=None, rm=None, pb=PB, pe=PE, grid_size=400,
                 r_min=-1.0, r_max=1.0):
    return CoppCalibration.from_scores(
        scores, log_weights, model=model or _band_model(),
        rm=rm or RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0),
        pbhat=pb, pe=pe, grid_size=grid_size, r_min=r_min, r_max=r_max,
    )


def _oracle_thresholds(cal_scores, cal_log_weights, cand_log_weights, level):
    # The weighted quantile re-sorted per call, on weights shifted by the
    # largest calibration log weight.
    shift = np.max(cal_log_weights)
    order = np.argsort(cal_scores, kind="stable")
    sorted_scores = cal_scores[order]
    cum = np.cumsum(np.exp(cal_log_weights - shift)[order])
    total = cum[-1] if cum.size else 0.0
    targets = level * (total + np.exp(cand_log_weights - shift))
    targets = targets - 1e-9 * np.maximum(1.0, np.abs(targets))
    idx = np.searchsorted(cum, targets, side="left")
    thresholds = np.full(cand_log_weights.shape[0], math.inf)
    hit = idx < sorted_scores.shape[0]
    thresholds[hit] = sorted_scores[idx[hit]]
    return thresholds


def _normal_density(x, mean, variance):
    return np.exp(-0.5 * (x - mean) ** 2 / variance) / np.sqrt(2.0 * math.pi * variance)


class TestCoppWeight:
    def test_identical_policies_give_exactly_one(self):
        # Both reward marginals are computed by the same operations, so their
        # log densities cancel exactly.
        rm = RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 2.0)
        contexts = child_rng(1).normal(size=(50, 1))
        rewards = child_rng(2).normal(size=50) * 5.0
        log_w = copp_log_weights(rm, PE, PE, contexts, rewards)
        assert np.all(log_w == 0.0)
        assert np.all(np.exp(log_w) == 1.0)

    def test_matches_marginal_density_ratio(self):
        # The weight is the ratio of two Gaussian reward marginals
        # N(r; c0 + c_s s + c_a mu(s), sigma^2 + c_a^2 v), computed here from
        # the densities themselves.
        rm = RewardModelGaussian(np.array([0.2, 0.9, 1.1]), 3.0)
        pb = GaussianLinearPolicy(np.array([0.3]), 0.2, 3.5)
        s, r = np.array([[0.7], [-1.2]]), np.array([2.5, -4.0])

        def marginal(policy):
            mean = 0.2 + 0.9 * s[:, 0] + 1.1 * policy.mean(s)
            return _normal_density(r, mean, 9.0 + 1.1**2 * policy.variance)

        expected = marginal(PE) / marginal(pb)
        assert np.exp(copp_log_weights(rm, pb, PE, s, r)) == pytest.approx(expected, rel=1e-12)

    def test_far_behavior_policy_gives_finite_log_weight(self):
        # A behavior policy far from the target: every Monte Carlo draw of
        # the behavior density underflows here, but the log weight is finite
        # and exact.
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 0.01)
        far = _policy(1000.0)
        log_w = copp_log_weights(rm, far, PE, np.zeros((1, 1)), np.zeros(1))
        var_b, var_e = 1e-4 + 1e-6, 1e-4 + PE.variance
        expected = 0.5 * (1000.0**2 / var_b + math.log(var_b / var_e))
        assert np.isfinite(log_w[0])
        assert log_w[0] == pytest.approx(expected, rel=1e-12)

    def test_non_gaussian_policy_rejected(self):
        # Exact weights need Gaussian-linear policies on both sides.
        rm = RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0)
        other = _ConstantActionPolicy(0.0)
        for pb, pe in ((other, PE), (PB, other)):
            with pytest.raises(ValueError, match="Gaussian policies only"):
                copp_log_weights(rm, pb, pe, np.zeros((1, 1)), np.zeros(1))
            with pytest.raises(ValueError, match="Gaussian policies only"):
                copp_calibrate(
                    LoggedDataset(np.zeros((2, 1)), np.zeros(2), np.zeros(2)),
                    _band_model(), rm, pb, pe, 400,
                )

    def test_batch_matches_marginal_statistics(self):
        # Monte Carlo reference: each marginal is the mean model density over
        # 200,000 independent action draws from its policy. The exact weight
        # lies within 3 standard errors of the ratio of the two means
        # (delta method), at unequal policy variances.
        rm = RewardModelGaussian(np.array([0.3, 0.8, 1.2]), 1.5)
        pb = GaussianLinearPolicy(np.array([0.5]), -0.4, 3.0)
        s = np.array([-1.0, 0.0, 0.5, 2.0])
        r = np.array([-2.0, 0.4, 1.0, 3.5])
        h = 200_000
        exact = np.exp(copp_log_weights(rm, pb, PE, s.reshape(-1, 1), r))
        rng = child_rng(6)
        for i in range(s.size):
            ctx = np.full((h, 1), s[i])
            num = _normal_density(r[i], rm.mean(ctx, PE.sample(ctx, rng)), rm.sigma**2)
            den = _normal_density(r[i], rm.mean(ctx, pb.sample(ctx, rng)), rm.sigma**2)
            ratio = num.mean() / den.mean()
            se = ratio * math.sqrt(
                num.var() / (h * num.mean() ** 2) + den.var() / (h * den.mean() ** 2)
            )
            assert abs(exact[i] - ratio) <= 3.0 * se


class TestWeightedQuantile:
    def test_uniform_weights_reduce_to_split_cp(self):
        rng = np.random.default_rng(7)
        for m in (1, 3, 9, 40, 137):
            scores = rng.normal(size=m)
            for level in (0.5, 0.8, 0.9, 0.975):
                thresholds = copp_thresholds(
                    _calibration(scores, np.zeros(m)), np.zeros(13), level
                )
                expected = split_cp_threshold(scores, level)
                assert np.all(thresholds == expected)

    def test_mass_normalization(self):
        # Calibration masses plus the candidate atom sum to one by
        # construction; verify on random weights.
        rng = np.random.default_rng(8)
        weights = rng.uniform(0.1, 3.0, size=50)
        cand = rng.uniform(0.1, 3.0, size=20)
        total = weights.sum() + cand
        p_cal = weights.sum() / total
        p_atom = cand / total
        assert np.allclose(p_cal + p_atom, 1.0, atol=1e-9)

    def test_heavy_candidate_pushes_to_infinity(self):
        scores = np.array([0.0, 1.0, 2.0])
        thr = copp_thresholds(_calibration(scores, np.zeros(3)), np.log([100.0]), 0.8)
        assert thr[0] == math.inf

    def test_matches_per_call_sort_oracle(self):
        # Sorting once per calibration gives the thresholds of sorting per
        # call, ties included, for candidate arrays of any shape.
        rng = np.random.default_rng(9)
        scores = np.round(rng.normal(size=60), 1)
        log_weights = np.log(rng.uniform(0.0, 2.0, size=60))
        cand = np.log(rng.uniform(0.0, 5.0, size=(7, 11)))
        thr = copp_thresholds(_calibration(scores, log_weights), cand, 0.8)
        expected = _oracle_thresholds(scores, log_weights, cand.reshape(-1), 0.8)
        assert thr.shape == (7, 11)
        assert thr.reshape(-1).tobytes() == expected.tobytes()

    def test_common_log_offset_keeps_thresholds(self):
        # Scaling every weight by e^800 leaves the weighted quantile as it
        # is. The log weights are multiples of 2^-20, so adding 800 is exact
        # and the thresholds must agree bit for bit; exponentiating the
        # unshifted weights would overflow to inf.
        rng = np.random.default_rng(10)
        scores = np.round(rng.normal(size=80), 1)
        log_weights = np.round(rng.normal(size=80) * 2.0 * 2**20) / 2**20
        cand = np.round(rng.normal(size=(5, 9)) * 2.0 * 2**20) / 2**20
        base = copp_thresholds(_calibration(scores, log_weights), cand, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calib = _calibration(scores, log_weights + 800.0)
            shifted = copp_thresholds(calib, cand + 800.0, 0.8)
        assert np.all(np.isfinite(calib.cum_weights))
        assert np.isfinite(base).any() and np.isinf(base).any()
        assert shifted.tobytes() == base.tobytes()

    def test_overflowing_candidate_weight_lands_on_atom(self):
        # A candidate whose shifted weight exceeds the float range puts all
        # but a negligible mass on the infinity atom.
        scores = np.array([0.0, 1.0, 2.0])
        cand = np.array([-5.0, 709.0, 710.0, 1e4, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thr = copp_thresholds(_calibration(scores, np.zeros(3)), cand, 0.8)
        assert thr[0] == 2.0
        assert np.all(np.isinf(thr[1:]))


class TestFitRewardModel:
    def test_noiseless_affine_recovery(self):
        rng = np.random.default_rng(5)
        contexts = rng.normal(size=(200, 1))
        actions = rng.normal(size=200)
        rewards = 1.5 + 2.0 * contexts[:, 0] - 0.5 * actions
        rm = fit_reward_model(LoggedDataset(contexts, actions, rewards))
        assert np.max(np.abs(rm.coef - np.array([1.5, 2.0, -0.5]))) < 1e-3
        assert rm.sigma == pytest.approx(1e-3, rel=0.2)

    def test_mixture_environment_sigma(self):
        # True reward variance given (s, a) is 0.2 * 1 + 0.8 * 16 = 13.
        d = sample_logged(1000, child_rng(99, 0))
        rm = fit_reward_model(d)
        assert 2.0 < rm.sigma**2 < 17.0

    def test_too_small(self):
        d = LoggedDataset(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            fit_reward_model(d)

    def test_normal_equations_and_residual_variance(self):
        d = sample_logged(1000, child_rng(98, 0))
        rm = fit_reward_model(d)
        x1 = np.hstack([np.ones((len(d), 1)), d.contexts, d.actions.reshape(-1, 1)])
        resid = d.rewards - x1 @ rm.coef
        assert np.linalg.norm(x1.T @ resid) <= (
            1e-9 * np.linalg.norm(x1) * np.linalg.norm(d.rewards)
        )
        assert rm.sigma**2 == pytest.approx(float(np.mean(resid * resid)), rel=1e-15)

    def test_min_norm_weights_for_equal_inputs(self):
        # Context 1 and action 2 everywhere: only c0 + c1 + 2 c2 is
        # determined, and the minimum-norm coefficients lie along (1, 1, 2).
        rewards = np.array([1.0, 3.0, -2.0, 6.0, 0.5])
        rm = fit_reward_model(LoggedDataset(np.ones((5, 1)), np.full(5, 2.0), rewards))
        assert np.allclose(rm.coef, rewards.mean() / 6.0 * np.array([1.0, 1.0, 2.0]),
                           rtol=1e-12, atol=0.0)
        assert rm.sigma == pytest.approx(np.std(rewards), rel=1e-12)

    def test_two_samples_hit_sigma_floor(self):
        # Three coefficients and two samples: the fit is exact, sigma floors.
        d = LoggedDataset(np.array([[0.0], [1.0]]), np.array([0.5, -1.0]), np.array([2.0, 3.0]))
        assert fit_reward_model(d).sigma == 1e-3

    def test_accuracy_under_large_offset(self):
        # Rewards offset by 1e6. Subtracting the offset again is exact in
        # floating point (Sterbenz), so the fit of the recentred rewards plus
        # 1e6 on the intercept is the reference. Tolerance, fixed before
        # measuring: 1e-6 in every coefficient (1e-12 relative to the
        # offset), 1e-9 relative in sigma.
        d = sample_logged(1000, child_rng(97, 0))
        shifted = d.rewards + 1e6
        rm = fit_reward_model(LoggedDataset(d.contexts, d.actions, shifted))
        ref = fit_reward_model(LoggedDataset(d.contexts, d.actions, shifted - 1e6))
        assert np.max(np.abs(rm.coef - (ref.coef + np.array([1e6, 0.0, 0.0])))) <= 1e-6
        assert rm.sigma == pytest.approx(ref.sigma, rel=1e-9)

    def test_sigma_floor(self):
        with pytest.raises(ValueError):
            RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 0.0)


class TestCoppPredict:
    """COPP prediction at one context: a one-row :func:`copp_hull_batch`."""

    def _setup(self, seed=10, n=800):
        d = sample_logged(n, child_rng(seed, 0))
        d1, d2 = split_dataset(d, 0.5)
        rm = fit_reward_model(d1)
        model = _band_model(-4.0, 4.0)
        return d1, d2, rm, model

    def test_returns_interval_with_flags(self):
        _, d2, rm, model = self._setup()
        calib = copp_calibrate(d2, model, rm, PB, PE, 80)
        hulls = copp_hull_batch(calib, [[0.0]], 0.2)
        assert hulls.lo.shape == hulls.non_contiguous.shape == (1,)
        assert not hulls.empty[0]
        assert hulls.lo[0] < hulls.hi[0]
        assert hulls.lengths()[0] == hulls.hi[0] - hulls.lo[0]

    def test_uniform_weights_match_split_cp_membership(self):
        # Identical policies give every weight exactly one, so the one-context
        # hull is the hull of the plain split-CP membership on the grid.
        _, d2, rm, model = self._setup()
        cal_scores = np.asarray(nonconformity(model, d2.contexts, d2.rewards))
        calib = copp_calibrate(d2, model, rm, PE, PE, 120)
        assert np.array_equal(calib.cum_weights, np.arange(1.0, len(d2) + 1.0))
        grid = calib.grid()
        member = np.asarray(
            nonconformity(model, np.zeros((grid.size, 1)), grid)
        ) <= split_cp_threshold(cal_scores, 0.8)
        where = np.flatnonzero(member)
        hulls = copp_hull_batch(calib, [[0.0]], 0.2)
        assert (hulls.lo[0], hulls.hi[0]) == (grid[where[0]], grid[where[-1]])
        assert not hulls.non_contiguous[0]

    def test_empty_acceptance_sentinel(self):
        # Calibration pairs score 4 while every grid candidate scores 5, and
        # the target policy puts its actions near 0 at the calibration
        # context but near 1000 at the test context, so the candidates'
        # weights vanish next to the calibration weights and the weighted
        # quantile stays at the calibration score: no candidate is accepted.
        cal = LoggedDataset(np.full((4, 1), -1.0), np.zeros(4), np.zeros(4))
        model = QuantilePairModel(np.array([5.0, 10.0]), np.array([6.0, 10.0]), (0.1, 0.9))
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 1.0)
        pe = GaussianLinearPolicy(np.array([1000.0]), 1000.0, 1e-6)
        calib = copp_calibrate(cal, model, rm, _policy(0.0, 1.0), pe, 30)
        hulls = copp_hull_batch(calib, [[0.0]], 0.2)
        assert hulls.empty[0] and not hulls.non_contiguous[0]
        assert np.isnan(hulls.lo[0]) and np.isnan(hulls.hi[0])
        assert hulls.lengths()[0] == 0.0

    def test_hull_flags_non_contiguous_acceptance(self):
        # Candidate weights increase sharply in r (log w = 12 r - 18 up to the
        # tiny policy variance), so the weighted quantile jumps from the
        # smallest calibration score to infinity along the grid. With most
        # calibration mass parked on the smallest score, candidates just
        # above the band are rejected while high-r candidates pass via the
        # infinity atom: acceptance has a gap.
        cal_scores = np.array([0.1, 9.0, 9.5, 10.0])
        cal_weights = np.array([3.9, 0.01, 0.01, 0.08])
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 0.5)
        # Rewards over [-4/3, 4/3] give the grid [-2, 2] with its quarter-span margins.
        calib = _calibration(
            cal_scores, np.log(cal_weights), _band_model(-1.0, 1.0), rm,
            _policy(0.0), _policy(3.0), 81, -4.0 / 3.0, 4.0 / 3.0,
        )
        assert np.array_equal(calib.grid(), np.linspace(-2.0, 2.0, 81))
        hulls = copp_hull_batch(calib, [0.0], 0.2)
        assert hulls.non_contiguous[0]
        assert not hulls.empty[0]
        assert hulls.hi[0] == 2.0


class TestCoppHullBatch:
    """The batched hull against one-context calls on the same calibration."""

    def _fitted(self, seed=30, n=800):
        d1, d2 = split_dataset(sample_logged(n, child_rng(seed, 0)), 0.5)
        pbhat, _ = estimate_behavior(d1, PE, PolicyFitConfig())
        rm = fit_reward_model(d1)
        model = fit_quantile_pair(
            rejection_sample(d1, PE, PB, 2.5, child_rng(seed, 1)),
            PacParams(0.2, 0.1, 0.5),
        )
        return d2, model, rm, pbhat

    @staticmethod
    def _assert_matches_one_context_calls(calib, contexts, epsilon):
        hulls = copp_hull_batch(calib, contexts, epsilon)
        rows = [copp_hull_batch(calib, contexts[j:j + 1], epsilon) for j in range(len(contexts))]
        for field in ("lo", "hi", "empty", "non_contiguous"):
            expected = np.concatenate([getattr(row, field) for row in rows])
            assert getattr(hulls, field).tobytes() == expected.tobytes()
        return hulls

    @pytest.mark.parametrize("policies", ["true", "estimated"])
    @pytest.mark.parametrize("n", [50, 2])
    def test_gaussian_matches_per_context_oracle(self, policies, n):
        d2, model, rm, pbhat = self._fitted()
        pb = PB if policies == "true" else pbhat
        calib = copp_calibrate(d2, model, rm, pb, PE, 200)
        contexts = sample_target(n, child_rng(31)).contexts
        hulls = self._assert_matches_one_context_calls(calib, contexts, 0.2)
        assert not hulls.empty.any()
        assert np.all(hulls.lengths() > 0.0)

    def test_mixed_acceptance_matches_per_context_calls(self):
        # The calibration of the non-contiguity test above, with a sloped
        # band and a reward mean that rises in the context, gives contiguous,
        # gapped and empty acceptance across contexts.
        calib = _calibration(
            np.array([0.1, 9.0, 9.5, 10.0]), np.log([3.9, 0.01, 0.01, 0.08]),
            _band_model(-1.0, 1.0, slope=2.0),
            RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 0.5),
            _policy(0.0), _policy(3.0), 41, -4.0 / 3.0, 4.0 / 3.0,
        )
        assert np.array_equal(calib.grid(), np.linspace(-2.0, 2.0, 41))
        contexts = np.linspace(-3.0, 3.0, 7).reshape(-1, 1)
        hulls = self._assert_matches_one_context_calls(calib, contexts, 0.2)
        assert hulls.empty.any() and hulls.non_contiguous.any()
        assert not (hulls.empty | hulls.non_contiguous).all()

    def test_empty_calibration_rejected(self):
        rm = RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            copp_calibrate(LoggedDataset.empty(), _band_model(), rm, PB, PE, 400)

    @pytest.mark.parametrize("grid_size", [1, 0, -1])
    def test_grid_size_below_two_rejected(self, grid_size):
        rm = RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0)
        cal = LoggedDataset(np.zeros((2, 1)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="grid_size must be >= 2"):
            copp_calibrate(cal, _band_model(), rm, PB, PE, grid_size)


class TestCoppRsPredict:
    def test_marginal_coverage_over_seeded_trials(self):
        # Rejection sampling plus the plain empirical-quantile threshold is
        # marginally valid: the mean over 1,000 seeded pipeline trials of each
        # trial's exact coverage must fall in [0.79, 0.81].
        params = PacParams(0.2, 0.1, 0.5)
        coverages = np.empty(1000)
        for i in range(1000):
            seed = 10000 + i
            d = sample_logged(2000, child_rng(seed, 0))
            split = rs_split_unknown(d, PE, 0.5, PolicyFitConfig(), child_rng(seed, 2))
            qm = fit_quantile_pair(split.train, params)
            scores = nonconformity(qm, split.cal.contexts, split.cal.rewards)
            thr = split_cp_threshold(scores, 0.8)
            coverages[i] = 1.0 - exact_interval_metrics(qm.w_lo, qm.w_up, thr)[0]
        assert 0.79 <= coverages.mean() <= 0.81
