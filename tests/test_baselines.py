import math
import warnings

import numpy as np
import pytest

from pacope.baselines import (
    _LOG_FLOAT_MAX,
    _SNAP,
    CoppCalibration,
    RewardModelGaussian,
    _log_weight_levels,
    copp_calibrate,
    copp_log_weights,
    copp_sets,
    fit_reward_model,
)
from pacope.behavior import estimate_behavior, rs_split_unknown
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
    return QuantilePairModel(np.array([lo, slope]), np.array([up, slope]))


def _policy(intercept, variance=1e-6):
    return GaussianLinearPolicy(np.array([0.0]), intercept, variance)


def _calibration(scores, log_weights, model=None, rm=None, pb=PB, pe=PE):
    return CoppCalibration.from_scores(
        scores, log_weights, model=model or _band_model(),
        rm=rm or RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0),
        pbhat=pb, pe=pe,
    )


def copp_thresholds(calib, cand_log_weights, level):
    """Per-candidate ``level``-quantile of the weighted score distribution.

    The reference that :func:`copp_sets` and ``_log_weight_levels`` are
    checked against. The distribution puts mass ``w_i / (W + c)`` on each
    calibration score and ``c / (W + c)`` on infinity, where ``c`` is the
    candidate's own weight, all shifted by ``calib.log_shift``. Returns one
    threshold per candidate, in the shape of ``cand_log_weights`` (``inf``
    when the quantile lands on the atom). A shifted candidate weight beyond
    the float range outweighs the at most ``m`` calibration weights of at
    most one each, so its quantile is the atom. A relative 1e-9 slack keeps
    decimal levels stored as floats from selecting the next order statistic.
    A level outside ``(0, 1]`` raises ``ValueError``.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    shifted = np.asarray(cand_log_weights, dtype=float) - calib.log_shift
    atom = shifted > _LOG_FLOAT_MAX
    cum = calib.cum_weights
    targets = level * (cum[-1] + np.exp(np.where(atom, 0.0, shifted)))
    targets = targets - _SNAP * np.maximum(1.0, np.abs(targets))
    idx = np.searchsorted(cum, targets, side="left")
    thresholds = np.full(targets.shape, math.inf)
    hit = ~atom & (idx < calib.sorted_scores.shape[0])
    thresholds[hit] = calib.sorted_scores[idx[hit]]
    return thresholds


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
                    _band_model(), rm, pb, pe,
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

    @pytest.mark.parametrize("level", [0.0, -1.0, 1.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        # Like split_cp_threshold: a level in (0, 1], or ValueError, never a
        # score or inf for a level no quantile has.
        calib = _calibration(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        with pytest.raises(ValueError, match="level"):
            copp_thresholds(calib, np.zeros(2), level)
        assert copp_thresholds(calib, np.zeros(2), 1.0).tolist() == [math.inf, math.inf]

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


class TestLogWeightLevels:
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.95])
    def test_levels_bound_the_reference_thresholds(self, level):
        # The reference gives sorted_scores[j] to a candidate log weight in
        # (L[j-1], L[j]], and the next score (the atom after the last) just
        # above L[j]. A log weight 1e-6 inside or outside is far beyond the
        # 1e-9 snap and far within the gaps between levels.
        rng = np.random.default_rng(12)
        calib = _calibration(rng.normal(size=40), np.log(rng.uniform(0.1, 2.0, size=40)))
        levels = _log_weight_levels(calib, level)
        nxt = np.append(calib.sorted_scores[1:], math.inf)
        live = np.isfinite(levels)
        assert live.any() and not live.all()
        inside = copp_thresholds(calib, levels[live] - 1e-6, level)
        above = copp_thresholds(calib, levels[live] + 1e-6, level)
        assert inside.tobytes() == calib.sorted_scores[live].tobytes()
        assert above.tobytes() == nxt[live].tobytes()
        # Where L[j] is -inf, even a vanishing weight passes sorted_scores[j].
        lightest = copp_thresholds(calib, np.array([calib.log_shift - 700.0]), level)
        assert np.all(lightest > calib.sorted_scores[~live])


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


def copp_accepted(calib, contexts, rewards, epsilon):
    """COPP's acceptance rule, candidate by candidate, at one context or at
    one context per candidate reward."""
    rewards = np.asarray(rewards, dtype=float)
    contexts = np.full((rewards.size, 1), contexts)
    log_weights = copp_log_weights(calib.rm, calib.pbhat, calib.pe, contexts, rewards)
    lo, up = calib.model.quantiles(contexts)
    thresholds = copp_thresholds(calib, log_weights, 1.0 - epsilon)
    return np.maximum(lo - rewards, rewards - up) <= thresholds


def _grid_pieces(calib, s, epsilon, lo, hi, points=100_000):
    """Runs of accepted candidates on an evenly spaced grid, and its spacing."""
    grid = np.linspace(lo, hi, points)
    inside = np.concatenate(([False], copp_accepted(calib, s, grid, epsilon), [False]))
    edges = np.flatnonzero(np.diff(inside.astype(int)))
    return grid[edges[0::2]], grid[edges[1::2] - 1], grid[1] - grid[0]


def _assert_ends_confirmed(calib, contexts, epsilon):
    """Every finite end holds an accepted candidate just inside and a
    rejected one just outside, by the acceptance rule itself."""
    sets = copp_sets(calib, contexts, epsilon)
    ctx = np.asarray(contexts, dtype=float).reshape(-1)
    for ends, inward in ((sets.lo, 1.0), (sets.hi, -1.0)):
        finite = np.isfinite(ends)
        s, end = ctx[sets.row[finite]], ends[finite]
        step = 1e-7 * np.maximum(1.0, np.abs(end))
        for j in range(end.size):
            assert copp_accepted(calib, s[j], [end[j] + inward * step[j]], epsilon)[0]
            assert not copp_accepted(calib, s[j], [end[j] - inward * step[j]], epsilon)[0]
    return sets


def _gapped_calibration(slope=0.0, context_coef=0.0):
    # Candidate weights increase sharply in r (log w = 12 r - 18 up to the
    # tiny policy variance), so the weighted quantile jumps from the smallest
    # calibration score to infinity: with most calibration mass parked on the
    # smallest score, candidates just above the band are rejected while
    # high-r candidates pass via the infinity atom.
    return _calibration(
        np.array([0.1, 9.0, 9.5, 10.0]), np.log([3.9, 0.01, 0.01, 0.08]),
        _band_model(-1.0, 1.0, slope), RewardModelGaussian(np.array([0.0, context_coef, 1.0]), 0.5),
        _policy(0.0), _policy(3.0),
    )


def _far_target_calibration():
    # The target policy puts its actions near 0 at the calibration context
    # -1 but near 1000 at the context 0. There every candidate near the band
    # has a vanishing weight and meets the calibration score 4, while
    # candidates near 1000 carry enough weight to reach the infinity atom.
    cal = LoggedDataset(np.full((4, 1), -1.0), np.zeros(4), np.zeros(4))
    model = QuantilePairModel(np.array([5.0, 10.0]), np.array([6.0, 10.0]))
    rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 1.0)
    pe = GaussianLinearPolicy(np.array([1000.0]), 1000.0, 1e-6)
    return copp_calibrate(cal, model, rm, _policy(0.0, 1.0), pe)


class TestCoppPredict:
    """COPP prediction at one context: a one-row :func:`copp_sets`."""

    def _setup(self, seed=10, n=800):
        d = sample_logged(n, child_rng(seed, 0))
        d1, d2 = split_dataset(d, 0.5)
        rm = fit_reward_model(d1)
        model = _band_model(-4.0, 4.0)
        return d1, d2, rm, model

    def test_returns_interval_with_flags(self):
        _, d2, rm, model = self._setup()
        sets = copp_sets(copp_calibrate(d2, model, rm, PB, PE), [[0.0]], 0.2)
        assert sets.measure().shape == sets.counts().shape == (1,)
        assert sets.counts()[0] == 1
        lo, hi = sets.lo, sets.hi
        assert lo[0] < hi[0]
        assert sets.measure()[0] == hi[0] - lo[0]

    @pytest.mark.parametrize("epsilon", [-0.5, 0.0, 1.0, 1.5, math.nan])
    def test_epsilon_outside_unit_interval_rejected(self, epsilon):
        # No infinite measures, empty sets or division by zero: a miscoverage
        # level outside (0, 1) raises.
        _, d2, rm, model = self._setup()
        calib = copp_calibrate(d2, model, rm, PB, PE)
        with pytest.raises(ValueError, match="epsilon"):
            copp_sets(calib, [[0.0]], epsilon)

    def test_uniform_weights_match_split_cp_membership(self):
        # Identical policies give every weight exactly one, so the set is the
        # split-CP interval [q_lo - T, q_up + T], bit for bit. At m = 4 and
        # m = 9 the level times m + 1 is a whole number of calibration weights.
        _, d2, rm, model = self._setup()
        contexts = np.array([[-3.0], [0.0], [2.5]])
        q_lo, q_up = model.quantiles(contexts)
        for m in (len(d2), 4, 9):
            cal = LoggedDataset(d2.contexts[:m], d2.actions[:m], d2.rewards[:m])
            calib = copp_calibrate(cal, model, rm, PE, PE)
            assert np.array_equal(calib.cum_weights, np.arange(1.0, m + 1.0))
            threshold = split_cp_threshold(nonconformity(model, cal.contexts, cal.rewards), 0.8)
            assert math.isfinite(threshold)
            sets = copp_sets(calib, contexts, 0.2)
            assert sets.row.tolist() == [0, 1, 2]
            assert sets.lo.tobytes() == (q_lo - threshold).tobytes()
            assert sets.hi.tobytes() == (q_up + threshold).tobytes()

    def test_empty_acceptance_sentinel(self):
        # Every calibration pair scores -1 (reward 0 inside the band [-1, 1]
        # at context 0), and the candidate weights peak at the calibration
        # weight, so the threshold is -1 for every candidate. At context 1
        # the band [-1, 0] is narrower than 2: no candidate is accepted.
        cal = LoggedDataset(np.zeros((4, 1)), np.zeros(4), np.zeros(4))
        model = QuantilePairModel(np.array([-1.0, 0.0]), np.array([1.0, -1.0]))
        rm = RewardModelGaussian(np.array([0.0, 0.0, 1.0]), 1.0)
        calib = copp_calibrate(cal, model, rm, _policy(0.0, 1.0), _policy(0.0))
        sets = copp_sets(calib, [[1.0]], 0.2)
        assert sets.lo.size == 0 and sets.counts().tolist() == [0]
        assert sets.measure()[0] == 0.0
        grid = np.linspace(-5.0, 5.0, 10_001)
        assert not copp_accepted(calib, 1.0, grid, 0.2).any()

    def test_hull_flags_non_contiguous_acceptance(self):
        # The band [-1.1, 1.1] and, past a gap, the atom's unbounded tail.
        calib = _gapped_calibration()
        sets = _assert_ends_confirmed(calib, [0.0], 0.2)
        assert sets.counts()[0] > 1
        assert sets.lo.size == 2 and sets.hi[-1] == math.inf
        assert sets.measure()[0] == math.inf
        lo, hi, spacing = _grid_pieces(calib, 0.0, 0.2, -5.0, 5.0)
        assert lo.size == 2 and hi[-1] == 5.0
        assert np.all(np.abs(sets.lo - lo) <= spacing)
        assert abs(sets.hi[0] - hi[0]) <= spacing

    def test_concave_weights_give_bounded_far_piece(self):
        # A behavior marginal wider than the target's bounds the set: the
        # band [1, 10] of the calibration score 4, and a far piece around the
        # target's reward mean 1000 where the weight reaches the atom.
        calib = _far_target_calibration()
        sets = _assert_ends_confirmed(calib, [[0.0]], 0.2)
        assert sets.lo.size == 2 and np.all(np.isfinite(sets.hi))
        assert sets.lo[0] == 1.0 and sets.hi[0] == 10.0
        assert sets.lo[1] < 1000.0 < sets.hi[1]
        lo, hi, spacing = _grid_pieces(calib, 0.0, 0.2, -100.0, 4000.0)
        assert lo.size == 2
        assert np.all(np.abs(sets.lo - lo) <= spacing) and np.all(np.abs(sets.hi - hi) <= spacing)
        assert sets.measure()[0] == pytest.approx(float(np.sum(sets.hi - sets.lo)), rel=1e-15)

    def test_narrow_behavior_marginal_gives_infinite_measure(self):
        # A behavior marginal narrower than the target's makes the weight
        # grow without bound in both tails, so both tails reach the atom.
        _, d2, rm, model = self._setup()
        narrow = GaussianLinearPolicy(np.array([0.25]), 0.0, 0.5 * PE.variance)
        calib = copp_calibrate(d2, model, rm, narrow, PE)
        sets = _assert_ends_confirmed(calib, [[-2.0], [0.0], [3.0]], 0.2)
        assert np.all(sets.measure() == math.inf)
        assert np.all(sets.lo[sets.counts().cumsum() - sets.counts()] == -math.inf)
        assert np.all(sets.hi[sets.counts().cumsum() - 1] == math.inf)


class TestCoppHullBatch:
    """The batched sets against one-context calls on the same calibration."""

    def _fitted(self, seed=30, n=800):
        d1, d2 = split_dataset(sample_logged(n, child_rng(seed, 0)), 0.5)
        pbhat, _ = estimate_behavior(d1, PE)
        rm = fit_reward_model(d1)
        model = fit_quantile_pair(
            rejection_sample(d1, PE, PB, 2.5, child_rng(seed, 1)),
            PacParams(0.2, 0.1, 0.5),
        )
        return d2, model, rm, pbhat

    @staticmethod
    def _assert_matches_one_context_calls(calib, contexts, epsilon):
        sets = copp_sets(calib, contexts, epsilon)
        rows = [copp_sets(calib, contexts[j:j + 1], epsilon) for j in range(len(contexts))]
        for field in ("lo", "hi"):
            expected = np.concatenate([getattr(row, field) for row in rows])
            assert getattr(sets, field).tobytes() == expected.tobytes()
        expected = np.concatenate([np.full(row.lo.size, j) for j, row in enumerate(rows)])
        assert np.array_equal(sets.row, expected)
        assert sets.measure().tobytes() == np.concatenate([r.measure() for r in rows]).tobytes()
        return sets

    @pytest.mark.parametrize("policies", ["true", "estimated"])
    @pytest.mark.parametrize("n", [50, 2])
    def test_gaussian_matches_per_context_oracle(self, policies, n):
        d2, model, rm, pbhat = self._fitted()
        pb = PB if policies == "true" else pbhat
        calib = copp_calibrate(d2, model, rm, pb, PE)
        contexts = sample_target(n, child_rng(31)).contexts
        sets = self._assert_matches_one_context_calls(calib, contexts, 0.2)
        assert np.all(sets.counts() > 0)
        assert np.all((sets.measure() > 0.0) & np.isfinite(sets.measure()))
        _assert_ends_confirmed(calib, contexts[:2], 0.2)

    def test_mixed_acceptance_matches_per_context_calls(self):
        # The gapped calibration with a sloped band and a reward mean that
        # rises in the context gives contiguous and gapped sets across
        # contexts.
        calib = _gapped_calibration(slope=2.0, context_coef=1.0)
        contexts = np.linspace(-3.0, 3.0, 7).reshape(-1, 1)
        sets = self._assert_matches_one_context_calls(calib, contexts, 0.2)
        assert (sets.counts() > 1).any() and not (sets.counts() > 1).all()
        _assert_ends_confirmed(calib, contexts, 0.2)

    def test_empty_calibration_rejected(self):
        rm = RewardModelGaussian(np.array([0.0, 1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            copp_calibrate(LoggedDataset.empty(), _band_model(), rm, PB, PE)


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
            split = rs_split_unknown(d, PE, 0.5, child_rng(seed, 2))
            qm = fit_quantile_pair(split.train, params)
            scores = nonconformity(qm, split.cal.contexts, split.cal.rewards)
            thr = split_cp_threshold(scores, 0.8)
            coverages[i] = 1.0 - exact_interval_metrics(qm.w_lo, qm.w_up, thr)[0]
        assert 0.79 <= coverages.mean() <= 0.81
