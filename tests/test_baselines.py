import math

import numpy as np
import pytest

from pacope import baselines
from pacope.baselines import (
    CoppCalibration,
    CoppConfig,
    RewardModelGaussian,
    copp_calibrate,
    copp_hull_batch,
    copp_predict,
    copp_rs_predict,
    copp_thresholds,
    copp_weight,
    copp_weights,
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
from pacope.quantile import QuantilePairModel, fit_quantile_pair
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


def _band_model(lo=-1.0, up=1.0, slope=0.0):
    return QuantilePairModel(np.array([lo, slope]), np.array([up, slope]), (0.1, 0.9))


def _calibration(scores, weights, model=None, rm=None, pb=PB, pe=PE, cfg=CoppConfig(),
                 r_min=-1.0, r_max=1.0):
    return CoppCalibration.from_scores(
        scores, weights, model=model or _band_model(),
        rm=rm or RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0),
        pbhat=pb, pe=pe, cfg=cfg, r_min=r_min, r_max=r_max,
    )


# ---------------------------------------------------------------------------
# Oracle: the per-context COPP algorithm the batched path replaced. Two
# generators over one derived seed give the behavior and target normals, the
# weighted quantile re-sorts the calibration scores per call, and each
# context's grid is scored on repeated context rows.
# ---------------------------------------------------------------------------

def _oracle_weights(rm, pbhat, pe, contexts, rewards, h, rng):
    ctx = np.asarray(contexts, dtype=float).reshape(len(rewards), -1)
    r = np.asarray(rewards, dtype=float)
    n = ctx.shape[0]
    if not (isinstance(pbhat, GaussianLinearPolicy) and isinstance(pe, GaussianLinearPolicy)):
        weights = np.array([
            copp_weight(rm, pbhat, pe, ctx[i], float(r[i]), h, rng) for i in range(n)
        ])
        return weights, int(np.count_nonzero(weights == 0.0))
    seed = int(rng.integers(0, 2**63))
    make = lambda: np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    z_b = make().standard_normal((n, h))
    z_e = make().standard_normal((n, h))
    a_b = pbhat.mean(ctx)[:, None] + math.sqrt(pbhat.variance) * z_b
    a_e = pe.mean(ctx)[:, None] + math.sqrt(pe.variance) * z_e
    base = rm.coef[0] + ctx @ rm.coef[1:-1]
    mu_b = base[:, None] + rm.coef[-1] * a_b
    mu_e = base[:, None] + rm.coef[-1] * a_e
    norm = rm.sigma * math.sqrt(2.0 * math.pi)
    num = np.exp(-0.5 * ((r[:, None] - mu_e) / rm.sigma) ** 2).sum(axis=1) / norm
    den = np.exp(-0.5 * ((r[:, None] - mu_b) / rm.sigma) ** 2).sum(axis=1) / norm
    zero = den <= 0.0
    weights = np.zeros(n)
    weights[~zero] = num[~zero] / den[~zero]
    return weights, int(np.count_nonzero(zero))


def _oracle_thresholds(cal_scores, cal_weights, cand_weights, level):
    order = np.argsort(cal_scores, kind="stable")
    sorted_scores = cal_scores[order]
    cum = np.cumsum(cal_weights[order])
    total = cum[-1] if cum.size else 0.0
    targets = level * (total + cand_weights)
    targets = targets - 1e-9 * np.maximum(1.0, np.abs(targets))
    idx = np.searchsorted(cum, targets, side="left")
    thresholds = np.full(cand_weights.shape[0], math.inf)
    hit = idx < sorted_scores.shape[0]
    thresholds[hit] = sorted_scores[idx[hit]]
    return thresholds


def _oracle_hull(cal_scores, cal_weights, model, rm, pbhat, pe, s, epsilon, cfg, rng,
                 r_min, r_max):
    """(lo, hi, empty, non_contiguous, zeros) of one context's grid sweep."""
    span = max(r_max - r_min, 1e-12)
    grid = np.linspace(
        r_min - cfg.grid_margin * span, r_max + cfg.grid_margin * span, cfg.grid_size
    )
    ctx = np.repeat(np.reshape(s, (1, -1)), cfg.grid_size, axis=0)
    cand_weights, zeros = _oracle_weights(rm, pbhat, pe, ctx, grid, cfg.mc_samples, rng)
    thresholds = _oracle_thresholds(cal_scores, cal_weights, cand_weights, 1.0 - epsilon)
    included = np.asarray(nonconformity(model, ctx, grid)) <= thresholds
    if not np.any(included):
        return math.nan, math.nan, True, False, zeros
    where = np.flatnonzero(included)
    non_contiguous = bool(where[-1] - where[0] + 1 != where.size)
    return grid[where[0]], grid[where[-1]], False, non_contiguous, zeros


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
        weights, zeros = copp_weights(
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
        batch, _ = copp_weights(rm, PB, PE, contexts, rewards, 32, child_rng(6, 1))
        scalar = np.array([
            copp_weight(rm, PB, PE, 0.0, 1.0, 32, child_rng(6, 2 + i)) for i in range(400)
        ])
        assert abs(batch.mean() - scalar.mean()) < 4 * scalar.std() / math.sqrt(400)

    @pytest.mark.parametrize("pb", [PB, GaussianLinearPolicy(np.array([0.3]), 0.2, 3.5)])
    def test_single_draw_matches_two_generator_reference(self, pb):
        # One normal block serves both policies; the two generators of the
        # reference drew bit-identical blocks, so the weights are equal bit
        # for bit and both consume one draw of the caller's stream.
        rm = RewardModelGaussian(np.array([0.2, 0.9, 1.1]), 3.0)
        rng_a, rng_b = child_rng(15), child_rng(15)
        contexts = child_rng(16).normal(size=(300, 1))
        rewards = child_rng(17).normal(size=300) * 4.0
        weights, zeros = copp_weights(rm, pb, PE, contexts, rewards, 50, rng_a)
        expected, expected_zeros = _oracle_weights(rm, pb, PE, contexts, rewards, 50, rng_b)
        assert weights.tobytes() == expected.tobytes()
        assert zeros == expected_zeros
        assert rng_a.integers(0, 2**63) == rng_b.integers(0, 2**63)


class TestWeightedQuantile:
    def test_uniform_weights_reduce_to_split_cp(self):
        rng = np.random.default_rng(7)
        for m in (1, 3, 9, 40, 137):
            scores = rng.normal(size=m)
            for level in (0.5, 0.8, 0.9, 0.975):
                thresholds = copp_thresholds(
                    _calibration(scores, np.ones(m)), np.ones(13), level
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
        thr = copp_thresholds(_calibration(scores, np.ones(3)), np.array([100.0]), 0.8)
        assert thr[0] == math.inf

    def test_matches_per_call_sort_oracle(self):
        # Sorting once per calibration gives the thresholds of sorting per
        # call, ties included, for candidate arrays of any shape.
        rng = np.random.default_rng(9)
        scores = np.round(rng.normal(size=60), 1)
        weights = rng.uniform(0.0, 2.0, size=60)
        cand = rng.uniform(0.0, 5.0, size=(7, 11))
        thr = copp_thresholds(_calibration(scores, weights), cand, 0.8)
        expected = _oracle_thresholds(scores, weights, cand.reshape(-1), 0.8)
        assert thr.shape == (7, 11)
        assert thr.reshape(-1).tobytes() == expected.tobytes()


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
        thresholds = copp_thresholds(
            _calibration(cal_scores, np.ones(len(d2))), np.ones(cfg.grid_size), 0.8
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
        model = QuantilePairModel(np.array([5.0, 10.0]), np.array([6.0, 10.0]), (0.1, 0.9))
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
        calib = _calibration(
            cal_scores, cal_weights, _band_model(-1.0, 1.0), rm,
            _ConstantActionPolicy(0.0), _ConstantActionPolicy(3.0),
            CoppConfig(mc_samples=1, grid_size=81, grid_margin=0.0), -2.0, 2.0,
        )
        hulls = copp_hull_batch(calib, [0.0], 0.2, child_rng(14))
        assert hulls.non_contiguous[0]
        assert not hulls.empty[0]
        assert hulls.hi[0] == 2.0


class TestCoppHullBatch:
    """The batched hull against the per-context oracle on the same stream."""

    def _fitted(self, seed=30, n=800):
        d1, d2 = split_dataset(sample_logged(n, child_rng(seed, 0)), 0.5)
        pbhat, _ = estimate_behavior(d1, PE, PolicyFitConfig())
        rm = fit_reward_model(d1)
        model = fit_quantile_pair(
            rejection_sample(d1, weight_from_policies(PE, PB, 2.5), child_rng(seed, 1)),
            PacParams(0.2, 0.1, 0.5),
        )
        return d2, model, rm, pbhat

    @staticmethod
    def _assert_matches_oracle(calib, cal_scores, cal_weights, contexts, epsilon, seed):
        rng_batch, rng_oracle = child_rng(seed), child_rng(seed)
        hulls = copp_hull_batch(calib, contexts, epsilon, rng_batch)
        rows = [
            _oracle_hull(
                cal_scores, cal_weights, calib.model, calib.rm, calib.pbhat, calib.pe,
                contexts[j], epsilon, calib.cfg, rng_oracle, calib.r_min, calib.r_max,
            )
            for j in range(len(contexts))
        ]
        lo, hi, empty, non_contiguous, zeros = (np.array(col) for col in zip(*rows))
        assert hulls.lo.tobytes() == lo.tobytes()
        assert hulls.hi.tobytes() == hi.tobytes()
        assert np.array_equal(hulls.empty, empty)
        assert np.array_equal(hulls.non_contiguous, non_contiguous)
        assert hulls.zero_denominator_count == int(zeros.sum())
        # Both paths leave the caller's stream at the same position.
        assert rng_batch.integers(0, 2**63) == rng_oracle.integers(0, 2**63)
        return hulls

    @pytest.mark.parametrize("policies", ["true", "estimated"])
    @pytest.mark.parametrize("mc_samples", [50, 2])
    def test_gaussian_matches_per_context_oracle(self, policies, mc_samples):
        # Two Monte Carlo draws make the weights noisy enough that handing a
        # context another context's normal block moves its hull ends.
        d2, model, rm, pbhat = self._fitted()
        pb = PB if policies == "true" else pbhat
        cfg = CoppConfig(mc_samples=mc_samples, grid_size=200)
        chunk = baselines._HULL_BLOCK_FLOATS // (cfg.grid_size * cfg.mc_samples)
        n = 2 * chunk + 5
        assert n % chunk != 0
        contexts = sample_target(n, child_rng(31)).contexts
        calib = copp_calibrate(d2, model, rm, pb, PE, cfg, child_rng(32))
        cal_weights, _ = _oracle_weights(
            rm, pb, PE, d2.contexts, d2.rewards, cfg.mc_samples, child_rng(32)
        )
        cal_scores = np.asarray(nonconformity(model, d2.contexts, d2.rewards))
        hulls = self._assert_matches_oracle(calib, cal_scores, cal_weights, contexts, 0.2, 33)
        assert not hulls.empty.any()
        assert np.all(hulls.lengths() > 0.0)

    def test_constant_action_fallback_matches_per_context_oracle(self):
        # Non-Gaussian policies take the per-grid-point scalar path. The
        # calibration of the non-contiguity test above, with a sloped band and
        # a reward mean that rises in the context, gives contiguous, gapped
        # and empty acceptance across contexts.
        cal_scores = np.array([0.1, 9.0, 9.5, 10.0])
        cal_weights = np.array([3.9, 0.01, 0.01, 0.08])
        calib = _calibration(
            cal_scores, cal_weights, _band_model(-1.0, 1.0, slope=2.0),
            RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 0.5),
            _ConstantActionPolicy(0.0), _ConstantActionPolicy(3.0),
            CoppConfig(mc_samples=2, grid_size=41, grid_margin=0.0), -2.0, 2.0,
        )
        contexts = np.linspace(-3.0, 3.0, 7).reshape(-1, 1)
        hulls = self._assert_matches_oracle(calib, cal_scores, cal_weights, contexts, 0.2, 34)
        assert hulls.empty.any() and hulls.non_contiguous.any()
        assert not (hulls.empty | hulls.non_contiguous).all()

    def test_copp_predict_is_the_one_context_batch(self):
        d2, model, rm, pbhat = self._fitted(seed=35)
        cfg = CoppConfig(mc_samples=20, grid_size=60)
        result = copp_predict(d2, model, rm, pbhat, PE, 0.7, 0.2, cfg, child_rng(36))
        rng = child_rng(36)
        cal_weights, cal_zeros = _oracle_weights(
            rm, pbhat, PE, d2.contexts, d2.rewards, cfg.mc_samples, rng
        )
        cal_scores = np.asarray(nonconformity(model, d2.contexts, d2.rewards))
        lo, hi, empty, non_contiguous, zeros = _oracle_hull(
            cal_scores, cal_weights, model, rm, pbhat, PE, 0.7, 0.2, cfg, rng,
            float(np.min(d2.rewards)), float(np.max(d2.rewards)),
        )
        assert not empty
        assert (result.interval.lo, result.interval.hi) == (lo, hi)
        assert result.non_contiguous == non_contiguous
        assert result.zero_denominator_count == cal_zeros + zeros

    def test_counts_grid_zero_denominators(self):
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 0.01)
        far = GaussianLinearPolicy(np.array([0.0]), 1000.0, 1e-6)
        cfg = CoppConfig(mc_samples=4, grid_size=10)
        calib = _calibration(np.zeros(3), np.ones(3), rm=rm, pb=far, cfg=cfg)
        hulls = copp_hull_batch(calib, np.zeros((3, 1)), 0.2, child_rng(37))
        assert hulls.zero_denominator_count == 3 * cfg.grid_size

    def test_empty_calibration_rejected(self):
        rm = RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            copp_calibrate(LoggedDataset.empty(), _band_model(), rm, PB, PE, CoppConfig(),
                           child_rng(38))


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
            qm = fit_quantile_pair(rs1, params)
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
