import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import kstest

from pacope.core import PredictionInterval, child_rng
from pacope.synthenv import (
    DEFAULT_ENV,
    SynthEnvSpec,
    oracle_interval,
    oracle_quantile,
    oracle_quantiles,
    sample_logged,
    sample_target,
    target_reward_cdf,
    theorem_constants,
    _sample_mixture_noise,
)


def sample_target_rewards_at(s, m, rng, env=DEFAULT_ENV):
    """Draw ``m`` rewards from the target-conditional law at a fixed context."""
    contexts = np.full((m, 1), float(s))
    actions = env.target_policy().sample(contexts, rng)
    return s + actions + _sample_mixture_noise(m, rng, env)


def symmetric_difference_measure(iv1: PredictionInterval, iv2: PredictionInterval) -> float:
    """Lebesgue measure of the symmetric difference of two closed intervals:
    the scalar oracle of ``bench._symdiff_finite``.

    Infinite when exactly one interval is unbounded on a side where the other
    is not; matching unbounded sides contribute zero.
    """
    lo_gap = _endpoint_gap(iv1.lo, iv2.lo)
    hi_gap = _endpoint_gap(iv1.hi, iv2.hi)
    if math.isinf(lo_gap) or math.isinf(hi_gap):
        return math.inf
    overlap = min(iv1.hi, iv2.hi) - max(iv1.lo, iv2.lo)
    if overlap >= 0.0 or math.isnan(overlap):
        # Intersecting (or both unbounded): the difference is two edge strips.
        return lo_gap + hi_gap
    return iv1.length() + iv2.length()


def _endpoint_gap(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return abs(a - b)


class TestSampling:
    def test_empty_draws(self):
        assert len(sample_logged(0, child_rng(0))) == 0
        assert len(sample_target(0, child_rng(0))) == 0

    def test_context_moments(self):
        d = sample_logged(100000, child_rng(111, 0))
        s = d.contexts[:, 0]
        assert abs(s.mean()) < 0.02
        assert abs(s.var() - 4.0) < 0.1

    def test_reward_mean_is_centered(self):
        # E[R] = E[S + A] = E[1.25 S] = 0; var(R) = 10.25 + 13 = 23.25.
        d = sample_logged(100000, child_rng(111, 0))
        assert abs(d.rewards.mean()) < 3 * math.sqrt(23.25 / 100000)

    def test_target_conditional_law_matches_analytic_cdf(self):
        rewards = sample_target_rewards_at(0.0, 20000, child_rng(222, 0))
        stat = kstest(rewards, lambda x: target_reward_cdf(x, 0.0))
        assert stat.pvalue > 0.01

    def test_target_conditional_mean(self):
        rewards = sample_target_rewards_at(4.0, 100000, child_rng(223, 0))
        # E[R | s] = 5 s / 4 = 5; sd of the mixture is sqrt(14).
        assert abs(rewards.mean() - 5.0) < 3 * math.sqrt(14.0 / 100000)

    def test_target_marginal_coverage_of_oracle_band(self):
        t = sample_target(100000, child_rng(224, 0))
        lo = oracle_quantiles(t.contexts, 0.1)
        up = oracle_quantiles(t.contexts, 0.9)
        covered = float(np.mean((t.rewards >= lo) & (t.rewards <= up)))
        assert abs(covered - 0.8) < 0.012


class TestOracleQuantile:
    def test_median_at_zero_is_zero(self):
        assert abs(oracle_quantile(0.0, 0.5)) < 1e-7

    def test_low_quantile_matches_root_finder(self):
        expected = brentq(lambda x: target_reward_cdf(x, 0.0) - 0.1, -40, 40, xtol=1e-12)
        assert oracle_quantile(0.0, 0.1) == pytest.approx(expected, abs=1e-6)
        assert oracle_quantile(0.0, 0.1) == pytest.approx(-4.745, abs=0.01)

    def test_symmetry(self):
        assert oracle_quantile(0.0, 0.9) == pytest.approx(-oracle_quantile(0.0, 0.1), abs=1e-6)

    def test_strictly_increasing_in_level(self):
        for s in (-4.0, 0.0, 4.0):
            qs = [oracle_quantile(s, q) for q in np.linspace(0.01, 0.99, 99)]
            assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_cdf_inverts_quantile(self):
        for s in (-4.0, 0.0, 4.0):
            for q in (0.05, 0.3, 0.7, 0.95):
                x = oracle_quantile(s, q)
                assert abs(target_reward_cdf(x, s) - q) < 1e-7

    def test_vectorized_matches_scalar(self):
        contexts = np.array([-3.0, 0.0, 2.5])
        batch = oracle_quantiles(contexts, 0.2)
        for i, s in enumerate(contexts):
            assert batch[i] == pytest.approx(oracle_quantile(float(s), 0.2), abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            oracle_quantile(0.0, 0.0)

    def test_bracket_expands_for_extreme_levels(self):
        # The default bracket spans +-40, where the CDF is ~1e-22; a deeper
        # tail level forces the expansion loop and must still invert.
        q = 1e-26
        x = oracle_quantile(0.0, q)
        assert x < -40.0
        assert target_reward_cdf(x, 0.0) == pytest.approx(q, rel=1e-3)

    def test_oracle_interval(self):
        iv = oracle_interval(0.0, 0.1, 0.9)
        assert iv.lo == pytest.approx(-4.745, abs=0.01)
        assert iv.hi == pytest.approx(4.745, abs=0.01)


class TestTheoremConstants:
    def test_reference_values(self):
        tc = theorem_constants(2.0, 0.5, 0.2, 0.1, 0.05)
        assert tc.m0 == pytest.approx(10.3189, abs=1e-3)
        assert tc.c_upper == pytest.approx(56.822, abs=1e-2)
        assert tc.m1 == pytest.approx(460.517, abs=1e-2)
        assert tc.c_band == pytest.approx(183.956, abs=1e-2)

    def test_unit_bound_reduction(self):
        tc = theorem_constants(1.0, 0.5, 0.2, 0.1, 0.05)
        expected = 7.0 / math.sqrt(0.5 * 0.2 * 0.8) + math.sqrt(math.floor(tc.m0 / 0.5)) + 0.5
        assert tc.c_upper == pytest.approx(expected, rel=1e-12)

    def test_band_width_domain(self):
        with pytest.raises(ValueError):
            theorem_constants(2.0, 0.5, 0.2, 0.1, 0.2)

    def test_m0_positive(self):
        tc = theorem_constants(2.0, 0.5, 0.2, 0.1, 0.05)
        assert tc.m0 > 0


class TestSymmetricDifference:
    def test_identical_intervals(self):
        iv = PredictionInterval(-1.0, 2.0)
        assert symmetric_difference_measure(iv, iv) == 0.0

    def test_nested(self):
        a = PredictionInterval(0.0, 1.0)
        b = PredictionInterval(0.0, 2.0)
        assert symmetric_difference_measure(a, b) == 1.0

    def test_one_sided_unbounded(self):
        a = PredictionInterval(0.0, 1.0)
        assert symmetric_difference_measure(a, PredictionInterval.whole_line()) == math.inf

    def test_matching_unbounded_sides(self):
        a = PredictionInterval(-math.inf, 0.0)
        b = PredictionInterval(-math.inf, 5.0)
        assert symmetric_difference_measure(a, b) == 5.0
        assert symmetric_difference_measure(
            PredictionInterval.whole_line(), PredictionInterval.whole_line()
        ) == 0.0

    def test_disjoint(self):
        a = PredictionInterval(0.0, 1.0)
        b = PredictionInterval(2.0, 3.0)
        assert symmetric_difference_measure(a, b) == 2.0

    def test_against_grid_oracle(self):
        # Brute-force measure by indicator integration over a fine grid.
        rng = np.random.default_rng(17)
        grid = np.linspace(-10, 10, 200001)
        dx = grid[1] - grid[0]
        for _ in range(25):
            lo1, hi1 = np.sort(rng.uniform(-8, 8, 2))
            lo2, hi2 = np.sort(rng.uniform(-8, 8, 2))
            a = PredictionInterval(float(lo1), float(hi1))
            b = PredictionInterval(float(lo2), float(hi2))
            in_a = (grid >= a.lo) & (grid <= a.hi)
            in_b = (grid >= b.lo) & (grid <= b.hi)
            approx = float(np.sum(in_a ^ in_b)) * dx
            assert symmetric_difference_measure(a, b) == pytest.approx(approx, abs=5 * dx)


class TestEnvSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SynthEnvSpec(mixture_weights=(0.3, 0.3))

    def test_positive_variances(self):
        with pytest.raises(ValueError):
            SynthEnvSpec(component_variances=(1.0, 0.0))

    def test_target_component_variances(self):
        env = DEFAULT_ENV
        assert env.target_component_variances() == (2.0, 17.0)
