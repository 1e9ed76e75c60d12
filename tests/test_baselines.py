import math

import numpy as np
import pytest

from pacope.baselines import (
    CoppConfig,
    RewardModelGaussian,
    _copp_hull,
    _copp_weights_batch,
    _weighted_quantile_thresholds,
    copp_predict,
    copp_rs_predict,
    copp_weight,
    fit_reward_model,
)
from pacope.behavior import PolicyFitConfig, estimate_behavior
from pacope.calibrate import nonconformity, split_cp_threshold
from pacope.core import (
    GaussianLinearPolicy,
    LoggedDataset,
    PacParams,
    StochasticPolicy,
    child_rng,
    split_dataset,
)
from pacope.quantile import QuantilePairModel, QuantileTrainConfig, fit_quantile_pair
from pacope.rejection import gaussian_ratio_bound, rejection_sample, weight_from_policies
from pacope.synthenv import DEFAULT_ENV, sample_logged, sample_target

ENV = DEFAULT_ENV
PE = ENV.target_policy()
PB = ENV.behavior_policy()


class _ConstantActionPolicy(StochasticPolicy):
    """Deterministic sampler used to pin Monte Carlo draws in tests."""

    def __init__(self, value):
        self.value = float(value)

    def density(self, contexts, actions):
        return np.ones(np.asarray(actions).shape[0])

    def sample(self, contexts, rng):
        return np.full(np.shape(contexts)[0], self.value)


def _band_model(lo=-1.0, up=1.0):
    return QuantilePairModel(
        "affine", (np.array([lo, 0.0]),), (np.array([up, 0.0]),), (0.1, 0.9)
    )


class TestCoppWeight:
    def test_identical_policies_give_exactly_one(self):
        # Behavior and target draws share one derived stream, so identical
        # policies produce identical action sets and a ratio of exactly 1.
        rm = RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 2.0)
        w = copp_weight(rm, PE, PE, 0.5, 1.2, 64, child_rng(1))
        assert w == 1.0

    def test_single_draw_density_ratio(self):
        # sigma = 1/sqrt(2*pi) makes the model density exp(-pi (r - a)^2);
        # constant-action policies pin the draws, so the weight is the exact
        # ratio of two chosen densities 0.2 / 0.4.
        sigma = 1.0 / math.sqrt(2.0 * math.pi)
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), sigma)
        a_num = math.sqrt(math.log(1 / 0.2) / math.pi)
        a_den = math.sqrt(math.log(1 / 0.4) / math.pi)
        w = copp_weight(
            rm, _ConstantActionPolicy(a_den), _ConstantActionPolicy(a_num),
            0.0, 0.0, 1, child_rng(2),
        )
        assert w == pytest.approx(0.5, rel=1e-12)

    def test_zero_denominator_gives_zero(self):
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 0.01)
        w = copp_weight(
            rm, _ConstantActionPolicy(1000.0), _ConstantActionPolicy(0.0),
            0.0, 0.0, 4, child_rng(3),
        )
        assert w == 0.0

    def test_batch_counts_zero_denominators(self):
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 0.01)
        far = GaussianLinearPolicy(np.array([0.0]), 1000.0, 1e-6)
        weights, zeros = _copp_weights_batch(
            rm, far, PE, np.zeros((5, 1)), np.zeros(5), 8, child_rng(4)
        )
        assert zeros == 5
        assert np.all(weights == 0.0)

    def test_h_domain(self):
        rm = RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            copp_weight(rm, PB, PE, 0.0, 0.0, 0, child_rng(5))

    def test_batch_matches_marginal_statistics(self):
        # The batch fast path must produce the same weight distribution as
        # the generic scalar path (they consume streams differently, so the
        # comparison is statistical).
        d1, _ = split_dataset(sample_logged(1000, child_rng(6, 0)), 0.5)
        rm = fit_reward_model(d1)
        contexts = np.zeros((4000, 1))
        rewards = np.full(4000, 1.0)
        batch, _ = _copp_weights_batch(rm, PB, PE, contexts, rewards, 32, child_rng(6, 1))
        scalar = np.array([
            copp_weight(rm, PB, PE, 0.0, 1.0, 32, child_rng(6, 2 + i)) for i in range(400)
        ])
        assert abs(batch.mean() - scalar.mean()) < 4 * scalar.std() / math.sqrt(400)


class TestWeightedQuantile:
    def test_uniform_weights_reduce_to_split_cp(self):
        rng = np.random.default_rng(7)
        for m in (1, 3, 9, 40, 137):
            scores = rng.normal(size=m)
            for level in (0.5, 0.8, 0.9, 0.975):
                thresholds = _weighted_quantile_thresholds(
                    scores, np.ones(m), np.ones(13), level
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
        thr = _weighted_quantile_thresholds(scores, np.ones(3), np.array([100.0]), 0.8)
        assert thr[0] == math.inf


class TestFitRewardModel:
    def test_noiseless_affine_recovery(self):
        rng = np.random.default_rng(5)
        contexts = rng.normal(size=(200, 1))
        actions = rng.normal(size=200)
        rewards = 1.5 + 2.0 * contexts[:, 0] - 0.5 * actions
        rm = fit_reward_model(LoggedDataset(contexts, actions, rewards), epochs=5000)
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

    def test_sigma_floor(self):
        with pytest.raises(ValueError):
            RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 0.0)


class TestCoppPredict:
    def _setup(self, seed=10, n=800):
        d = sample_logged(n, child_rng(seed, 0))
        d1, d2 = split_dataset(d, 0.5)
        rm = fit_reward_model(d1)
        model = _band_model(-4.0, 4.0)
        return d1, d2, rm, model

    def test_returns_interval_with_flags(self):
        _, d2, rm, model = self._setup()
        result = copp_predict(
            d2, model, rm, PB, PE, 0.0, 0.2, CoppConfig(mc_samples=20, grid_size=80),
            child_rng(11),
        )
        assert result.interval is not None
        assert not result.empty
        assert result.interval.lo < result.interval.hi

    def test_empty_calibration_trivial(self):
        _, _, rm, model = self._setup()
        result = copp_predict(
            LoggedDataset.empty(), model, rm, PB, PE, 0.0, 0.2, CoppConfig(),
            child_rng(12),
        )
        assert result.interval.is_trivial

    def test_uniform_weights_match_split_cp_membership(self):
        # With all weights pinned to one, grid membership must agree exactly
        # with the plain split-CP threshold rule.
        _, d2, rm, model = self._setup()
        cal_scores = np.asarray(nonconformity(model, d2.contexts, d2.rewards))
        cfg = CoppConfig(mc_samples=4, grid_size=120)
        span = float(np.max(d2.rewards) - np.min(d2.rewards))
        grid = np.linspace(
            float(np.min(d2.rewards)) - 0.25 * span,
            float(np.max(d2.rewards)) + 0.25 * span,
            cfg.grid_size,
        )
        thresholds = _weighted_quantile_thresholds(
            cal_scores, np.ones(len(d2)), np.ones(cfg.grid_size), 0.8
        )
        member_weighted = np.asarray(
            nonconformity(model, np.zeros((cfg.grid_size, 1)), grid)
        ) <= thresholds
        member_split = np.asarray(
            nonconformity(model, np.zeros((cfg.grid_size, 1)), grid)
        ) <= split_cp_threshold(cal_scores, 0.8)
        assert np.array_equal(member_weighted, member_split)

    def test_empty_acceptance_sentinel(self):
        # Calibration pairs score 4 while every grid candidate scores 5, and
        # the target policy's actions leave zero model density on the grid,
        # so the weighted quantile stays at the smallest calibration score:
        # no candidate is accepted.
        cal = LoggedDataset(np.full((4, 1), -1.0), np.zeros(4), np.zeros(4))
        model = QuantilePairModel(
            "affine", (np.array([5.0, 10.0]),), (np.array([6.0, 10.0]),), (0.1, 0.9)
        )
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 1.0)
        result = copp_predict(
            cal, model, rm, _ConstantActionPolicy(0.0), _ConstantActionPolicy(1000.0),
            0.0, 0.2, CoppConfig(mc_samples=2, grid_size=30), child_rng(13),
        )
        assert result.empty and result.interval is None
        assert result.length() == 0.0
        assert not result.contains(0.0)

    def test_hull_flags_non_contiguous_acceptance(self):
        # Candidate weights increase sharply in r, so the weighted quantile
        # jumps from the smallest calibration score to infinity along the
        # grid. With most calibration mass parked on the smallest score,
        # candidates just above the band are rejected while high-r candidates
        # pass via the infinity atom: acceptance has a gap.
        cal_scores = np.array([0.1, 9.0, 9.5, 10.0])
        cal_weights = np.array([3.9, 0.01, 0.01, 0.08])
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 0.5)
        hull = _copp_hull(
            cal_scores, cal_weights, _band_model(-1.0, 1.0), rm,
            _ConstantActionPolicy(0.0), _ConstantActionPolicy(3.0),
            0.0, 0.2, CoppConfig(mc_samples=1, grid_size=81, grid_margin=0.0),
            child_rng(14), -2.0, 2.0,
        )
        assert hull.non_contiguous
        assert hull.interval is not None
        assert hull.interval.hi == 2.0


class TestCoppRsPredict:
    def test_empty_scores_whole_line(self):
        iv = copp_rs_predict(np.array([]), _band_model(), 0.0, 0.2)
        assert iv.is_trivial

    def test_threshold_index(self):
        scores = np.arange(1.0, 10.0)  # M = 9, level 0.8 -> 8th smallest
        iv = copp_rs_predict(scores, _band_model(), 0.0, 0.2)
        assert iv.lo == -1.0 - 8.0 and iv.hi == 1.0 + 8.0

    def test_marginal_coverage_over_seeded_trials(self):
        # Rejection sampling plus the plain empirical-quantile threshold is
        # marginally valid: mean coverage over 1,000 seeded pipeline trials
        # must fall in [0.79, 0.81].
        params = PacParams(0.2, 0.1, 0.5)
        qcfg = QuantileTrainConfig(learning_rate=0.1, epochs=400)
        coverages = np.empty(1000)
        for i in range(1000):
            seed = 10000 + i
            d = sample_logged(2000, child_rng(seed, 0))
            test = sample_target(10000, child_rng(seed, 1))
            rng = child_rng(seed, 2)
            d1, d2 = split_dataset(d, 0.5)
            pbhat, _ = estimate_behavior(d1, PE, PolicyFitConfig())
            bound = gaussian_ratio_bound(PE, pbhat, d.contexts)
            w = weight_from_policies(PE, pbhat, bound)
            rs1 = rejection_sample(d1, w, rng)
            rs2 = rejection_sample(d2, w, rng)
            qm = fit_quantile_pair(rs1, qcfg, params, rng)
            scores = nonconformity(qm, rs2.contexts, rs2.rewards)
            thr = split_cp_threshold(scores, 0.8)
            lo, up = qm.quantiles(test.contexts)
            st = np.maximum(lo - test.rewards, test.rewards - up)
            coverages[i] = float(np.mean(st <= thr))
        assert 0.79 <= coverages.mean() <= 0.81


class TestCoppConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(mc_samples=0), dict(grid_size=1), dict(grid_margin=-0.1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CoppConfig(**kwargs)
