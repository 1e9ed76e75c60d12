import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from pacope.core import GaussianLinearPolicy, LoggedDataset, StochasticPolicy, child_rng
from pacope.rejection import RsDataset, gaussian_ratio_bound, rejection_sample
from pacope.synthenv import DEFAULT_ENV, sample_logged, sample_target

ENV = DEFAULT_ENV
PE = ENV.target_policy()
PB = ENV.behavior_policy()
PROBE = np.linspace(-8.0, 8.0, 9).reshape(-1, 1)


class _ConstantDensityPolicy(StochasticPolicy):
    """A policy with the same density at every action (not a proper law)."""

    def __init__(self, value):
        self.value = value

    def density(self, contexts, actions):
        return np.full(np.shape(actions), self.value)


class TestGaussianRatioBound:
    def test_shared_mean_bound_is_exact(self):
        # Matched means: bound = sqrt(v_b / v_e) with no safety inflation.
        assert gaussian_ratio_bound(PE, PB, PROBE) == 2.0

    def test_identical_policies_give_one(self):
        assert gaussian_ratio_bound(PB, PB, PROBE) == 1.0

    def test_equal_variance_different_means_unbounded(self):
        other = GaussianLinearPolicy(np.array([0.25]), 1.0, PB.variance)
        with pytest.raises(ValueError, match="unbounded"):
            gaussian_ratio_bound(other, PB, PROBE)

    def test_wider_target_unbounded(self):
        wide = GaussianLinearPolicy(np.array([0.25]), 0.0, 9.0)
        with pytest.raises(ValueError, match="unbounded"):
            gaussian_ratio_bound(wide, PB, PROBE)

    def test_bound_dominates_grid_search_supremum(self):
        # Distinct means: closed form checked against brute-force grid search.
        pe = GaussianLinearPolicy(np.array([0.3]), 1.0, 1.0)
        bound = gaussian_ratio_bound(pe, PB, PROBE)
        worst = 0.0
        actions = np.linspace(-60.0, 60.0, 400001)
        for s in (-8.0, -2.0, 0.0, 3.0, 8.0):
            ctx = np.full((actions.size, 1), s)
            ratio = np.exp(pe.log_density(ctx, actions) - PB.log_density(ctx, actions))
            worst = max(worst, float(ratio.max()))
        assert worst <= bound <= 1.1 * worst * (1 + 1e-9)

    def test_safety_factor_applied_when_means_differ(self):
        pe = GaussianLinearPolicy(np.array([0.25]), 0.5, 1.0)
        gap = PB.variance - pe.variance
        per_context = math.sqrt(PB.variance / pe.variance) * math.exp(0.25 / (2 * gap))
        assert gaussian_ratio_bound(pe, PB, PROBE) == pytest.approx(1.1 * per_context)


class TestRejectionSample:
    def test_constant_weight_accepts_everything(self):
        d = sample_logged(500, child_rng(1))
        one = _ConstantDensityPolicy(0.5)
        rs = rejection_sample(d, one, one, 1.0, child_rng(2))
        assert len(rs) == 500
        assert rs.n_violations == 0

    def test_zero_weight_accepts_nothing(self):
        d = sample_logged(500, child_rng(1))
        rs = rejection_sample(d, _ConstantDensityPolicy(0.0), PB, 1.0, child_rng(2))
        assert len(rs) == 0

    def test_accepted_count_concentrates(self):
        # With B = 2 the count is Bin(n, 1/2); n = 2000 stays within [900, 1100].
        for seed in range(5):
            d = sample_logged(2000, child_rng(100 + seed, 0))
            rs = rejection_sample(d, PE, PB, 2.0, child_rng(100 + seed, 1))
            assert 900 <= len(rs) <= 1100

    def test_mean_count_over_many_seeds(self):
        # 2000 seeds at n=1000, B=2: mean within 3 standard errors of n/B.
        counts = np.empty(2000)
        for seed in range(2000):
            d = sample_logged(1000, child_rng(3000 + seed, 0))
            counts[seed] = len(rejection_sample(d, PE, PB, 2.0, child_rng(3000 + seed, 1)))
        se = math.sqrt(1000 * 0.25 / 2000)
        assert abs(counts.mean() - 500.0) <= 3 * se

    def test_order_preserved(self):
        d = sample_logged(800, child_rng(4, 0))
        rs = rejection_sample(d, PE, PB, 2.0, child_rng(4, 1))
        assert np.all(np.diff(rs.source_indices) > 0)
        assert np.array_equal(rs.rewards, d.rewards[rs.source_indices])

    def test_no_violations_with_oracle_bound(self):
        for seed in range(5):
            d = sample_logged(1000, child_rng(200 + seed, 0))
            bound = gaussian_ratio_bound(PE, PB, d.contexts)
            rs = rejection_sample(d, PE, PB, bound, child_rng(200 + seed, 1))
            assert rs.n_violations == 0

    def test_violations_counted_when_bound_understated(self):
        d = sample_logged(2000, child_rng(5, 0))
        rs = rejection_sample(d, PE, PB, 1.2, child_rng(5, 1))  # true supremum is 2
        assert rs.n_violations > 0

    def test_empty_dataset(self):
        rs = rejection_sample(LoggedDataset.empty(), PE, PB, 2.0, child_rng(0))
        assert len(rs) == 0

    def test_ratio_conventions(self):
        # 0 / 0 = 0 is never accepted; x / 0 = inf is accepted and counted as
        # a violation of any finite bound.
        d = sample_logged(50, child_rng(8))
        rs = rejection_sample(d, _ConstantDensityPolicy(0.0), _ConstantDensityPolicy(0.0), 1.0, child_rng(9))
        assert len(rs) == 0 and rs.n_violations == 0
        rs = rejection_sample(d, PE, _ConstantDensityPolicy(0.0), 1.0, child_rng(9))
        assert len(rs) == 50 and rs.n_violations == 50

    def test_infinite_bound_accepts_nothing_and_draws_nothing(self):
        d = sample_logged(200, child_rng(6))
        rng = child_rng(6, 1)
        rs = rejection_sample(d, PE, PB, math.inf, rng)
        assert len(rs) == 0 and rs.n_violations == 0
        assert rs.contexts.shape == (0, 1)
        # The stream is unread: its next variate is a fresh stream's first.
        assert rng.uniform() == child_rng(6, 1).uniform()

    def test_distributional_match_with_target(self):
        # Accepted rewards vs direct target draws: KS at level 0.01 must not
        # reject (light version of the acceptance criterion, 3 seeds).
        rejections = 0
        for seed in range(3):
            d = sample_logged(2000, child_rng(700 + seed, 0))
            bound = gaussian_ratio_bound(PE, PB, d.contexts)
            rs = rejection_sample(d, PE, PB, bound, child_rng(700 + seed, 1))
            direct = sample_target(50000, child_rng(700 + seed, 2))
            if ks_2samp(rs.rewards, direct.rewards).pvalue < 0.01:
                rejections += 1
        assert rejections == 0


class TestRsDataset:
    def test_split_tail_rule(self):
        rs = RsDataset(np.zeros((10, 1)), np.arange(10.0), np.arange(10))
        train, cal = rs.split(0.3)
        assert len(train) == 7 and len(cal) == 3
        assert np.array_equal(cal.rewards, [7.0, 8.0, 9.0])

    def test_indices_must_increase(self):
        with pytest.raises(ValueError):
            RsDataset(np.zeros((2, 1)), np.zeros(2), np.array([3, 1]))

    def test_bound_validation(self):
        d = sample_logged(10, child_rng(7))
        for bound in (0.5, math.nan):
            with pytest.raises(ValueError, match="bound"):
                rejection_sample(d, PE, PB, bound, child_rng(7, 1))
