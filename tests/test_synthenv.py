import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.optimize import brentq
from scipy.stats import kstest, norm

from pacope.calibrate import CalibratedPredictor, CalibrationDiagnostics, pacopp_known
from pacope.core import PacParams, PredictionInterval, child_rng
from pacope.quantile import QuantilePairModel
from pacope.synthenv import (
    DEFAULT_ENV,
    SynthEnvSpec,
    exact_interval_metrics,
    oracle_quantiles,
    sample_logged,
    sample_target,
    target_reward_cdf,
    theorem_constants,
    _bvn_cdf,
    _mean_piecewise_affine,
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


def _interval_predictor(w_lo, w_up, threshold) -> CalibratedPredictor:
    """A predictor with the given affine quantile lines and threshold."""
    model = QuantilePairModel(np.asarray(w_lo, float), np.asarray(w_up, float))
    diag = CalibrationDiagnostics(n_rs=20, m_cal=10, k=0, tie_flag=False, weight_violations=0, bound=2.0)
    return CalibratedPredictor(model, threshold, PacParams(0.2, 0.5, 0.5), diag)


def _metrics(pred: CalibratedPredictor, env=DEFAULT_ENV) -> tuple[float, float]:
    return exact_interval_metrics(pred.model.w_lo, pred.model.w_up, pred.threshold, env)


def grid_reference(pred: CalibratedPredictor, env=DEFAULT_ENV, points=100_001):
    """Miscoverage and mean length of ``pred`` by composite Simpson over
    +-14 sd of S, from ``interval_batch`` and ``target_reward_cdf`` pointwise
    (an empty interval: miss 1, length 0). The stretches between the map's
    kinks, where the lines cross and where the band empties, are integrated
    apart, so each integrand is smooth."""
    w_lo, w_up, tau = pred.model.w_lo, pred.model.w_up, pred.threshold
    sd = math.sqrt(env.context_variance)
    gap, gap_slope = w_up[0] - w_lo[0], w_up[1] - w_lo[1]
    kinks = [] if gap_slope == 0 else [(c - gap) / gap_slope for c in (0.0, -2.0 * tau)]
    edges = sorted([-14 * sd, 14 * sd] + [x for x in kinks if abs(x) < 14 * sd])
    miss_total = length_total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        s = np.linspace(a, b, points)
        lo, hi = pred.interval_batch(s)
        miss = np.where(
            lo > hi, 1.0, target_reward_cdf(lo, s, env) + 1.0 - target_reward_cdf(hi, s, env)
        )
        density = np.exp(-0.5 * s * s / env.context_variance) / (sd * math.sqrt(2.0 * math.pi))
        miss_total += simpson(miss * density, x=s)
        length_total += simpson(np.maximum(hi - lo, 0.0) * density, x=s)
    return miss_total, length_total


class TestExactIntervalMetrics:
    ENV3 = SynthEnvSpec(
        context_variance=1.0, mixture_weights=(0.5, 0.3, 0.2),
        component_variances=(1.0, 4.0, 9.0),
    )

    @pytest.mark.parametrize("n", [500, 2000])
    def test_fitted_predictors_match_grid_reference(self, n):
        for seed in range(3):
            d = sample_logged(n, child_rng(70 + seed, 0))
            pred = pacopp_known(
                d, DEFAULT_ENV.behavior_policy(), DEFAULT_ENV.target_policy(),
                PacParams(0.2, 0.1, 0.5), child_rng(70 + seed, 1),
            )
            assert np.allclose(_metrics(pred), grid_reference(pred), rtol=0, atol=1e-10)

    # Lines crossing at s = 0.8 and at s = 0 (within +-3 sd of S), a band
    # that is narrow everywhere, and parallel lines (no crossing; empty
    # everywhere at tau = -0.4), each widened, kept and narrowed.
    @pytest.mark.parametrize("w_lo,w_up", [
        ((-1.0, 1.5), (1.0, -1.0)),
        ((0.0, -1.0), (0.0, 1.0)),
        ((-0.3, 1.25), (0.3, 1.3)),
        ((-0.3, 1.25), (0.3, 1.25)),
    ])
    @pytest.mark.parametrize("tau", [0.7, 0.0, -0.4])
    def test_crossing_pairs_match_grid_reference(self, w_lo, w_up, tau):
        pred = _interval_predictor(w_lo, w_up, tau)
        assert np.allclose(_metrics(pred), grid_reference(pred), rtol=0, atol=1e-10)
        assert np.allclose(
            _metrics(pred, self.ENV3), grid_reference(pred, self.ENV3), rtol=0, atol=1e-10
        )

    def test_sampled_estimate_within_four_standard_errors(self):
        d = sample_logged(2000, child_rng(81, 0))
        pred = pacopp_known(
            d, DEFAULT_ENV.behavior_policy(), DEFAULT_ENV.target_policy(),
            PacParams(0.2, 0.1, 0.5), child_rng(81, 1),
        )
        miss, length = _metrics(pred)
        test = sample_target(1_000_000, child_rng(81, 2))
        lo, hi = pred.interval_batch(test.contexts)
        missed = (test.rewards < lo) | (test.rewards > hi)
        widths = np.maximum(hi - lo, 0.0)
        assert abs(missed.mean() - miss) <= 4.0 * math.sqrt(miss * (1.0 - miss) / missed.size)
        assert abs(widths.mean() - length) <= 4.0 * widths.std() / math.sqrt(widths.size)

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.tuples(*[st.floats(-4.0, 4.0) for _ in range(4)]),
        taus=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    )
    def test_miss_falls_and_length_rises_with_threshold(self, w, taus):
        small, large = sorted(taus)
        miss_s, length_s = exact_interval_metrics(w[:2], w[2:], small)
        miss_l, length_l = exact_interval_metrics(w[:2], w[2:], large)
        assert 0.0 <= miss_s <= 1.0 and 0.0 <= miss_l <= 1.0
        assert miss_s - miss_l >= -1e-12
        assert length_l - length_s >= -1e-12

    @pytest.mark.parametrize("k", [-1.3, -0.0, 0.0, 0.7])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5])
    def test_bivariate_normal_cdf_matches_quadrature(self, k, rho):
        # P(X <= h, Y <= k) = int_{-inf}^k phi(y) Phi((h - rho y) / r) dy,
        # at signed zeros too, where the T-function form takes limits.
        h = np.array([-1.3, -0.0, 0.0, 0.7])
        r = math.sqrt(1.0 - rho * rho)
        got = _bvn_cdf(h, k, np.full(4, rho), np.full(4, r))
        for hi, g in zip(h, got):
            ref, _ = quad(lambda y: norm.pdf(y) * norm.cdf((hi - rho * y) / r), -np.inf, k,
                          epsabs=1e-14)
            assert g == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize(("w_lo", "threshold", "expected"), [
        ([0.0, 1.0], -math.inf, (1.0, 0.0)),
        ([0.0, 1.0], math.nan, ValueError),
        ([math.nan, 1.0], 0.3, ValueError),
        ([0.0, math.inf], 0.3, ValueError),
        ([-math.inf, 1.0], math.inf, ValueError),
    ], ids=["empty-everywhere", "nan-threshold", "nan-weight", "inf-weight", "inf-weight-inf-threshold"])
    def test_out_of_range_input(self, w_lo, threshold, expected):
        # An interval empty everywhere misses surely and has length 0; NaN in
        # or non-finite weights raise instead of giving NaN metrics.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected is ValueError:
                with pytest.raises(ValueError):
                    exact_interval_metrics(w_lo, [1.0, 1.0], threshold)
            else:
                assert exact_interval_metrics(w_lo, [1.0, 1.0], threshold) == expected

    def test_infinite_threshold_and_other_dimensions(self):
        assert exact_interval_metrics([0.0, 1.0], [1.0, 1.0], math.inf) == (0.0, math.inf)
        with pytest.raises(ValueError):
            exact_interval_metrics([0.0, 1.0, 0.5], [1.0, 1.0, 0.5], 0.3)

    @settings(max_examples=60, deadline=None)
    @given(
        w=st.tuples(*[st.floats(-4.0, 4.0) for _ in range(4)]),
        parallel=st.booleans(),
        taus=st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, math.inf, -math.inf])),
                      max_size=6),
    )
    def test_threshold_array_gives_the_scalar_bits(self, w, parallel, taus):
        # One call over many thresholds (figure 2's PAC rows and COPP-RS)
        # returns each threshold's scalar result, bit for bit.
        w_lo, w_up = w[:2], (w[2], w[1]) if parallel else w[2:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = exact_interval_metrics(w_lo, w_up, taus)
        scalar = [exact_interval_metrics(w_lo, w_up, tau) for tau in taus]
        assert repr(batch) == repr(scalar)

    def test_threshold_matrix_and_nan_entry_rejected(self):
        with pytest.raises(ValueError):
            exact_interval_metrics([0.0, 1.0], [1.0, 1.0], [[0.1, 0.2]])
        with pytest.raises(ValueError):
            exact_interval_metrics([0.0, 1.0], [1.0, 1.0], [0.1, math.nan])


class TestMixtureNoise:
    @pytest.mark.parametrize("weights", [(0.2, 0.8), (0.5, 0.3, 0.2)])
    def test_labels_and_stream_match_generator_choice(self, weights):
        # Distinct component variances, so each draw's scale names its label.
        variances = tuple(float(j + 1) ** 2 for j in range(len(weights)))
        env = SynthEnvSpec(mixture_weights=weights, component_variances=variances)
        for seed in range(20):
            rng, ref = child_rng(seed, 90), child_rng(seed, 90)
            noise = _sample_mixture_noise(1000, rng, env)
            labels = ref.choice(len(weights), size=1000, p=np.asarray(weights))
            expected = np.sqrt(np.asarray(variances))[labels] * ref.standard_normal(1000)
            assert np.array_equal(noise, expected)
            assert rng.random() == ref.random()


class TestSampling:
    def test_empty_draws(self):
        assert len(sample_logged(0, child_rng(0))) == 0
        assert len(sample_target(0, child_rng(0))) == 0

    def test_logged_and_target_draws_share_contexts(self):
        # One sampler: on the same stream only the acting policy differs.
        logged, target = sample_logged(500, child_rng(110)), sample_target(500, child_rng(110))
        assert np.array_equal(logged.contexts, target.contexts)
        s = target.contexts[:, 0]
        assert np.allclose(logged.actions - s / 4, 2.0 * (target.actions - s / 4), rtol=0, atol=1e-12)

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
        # The mixture is symmetric, so the bracket of its components'
        # quantiles collapses to the point 0.
        assert oracle_quantiles(0.0, 0.5)[0] == 0.0

    def test_low_quantile_matches_root_finder(self):
        expected = brentq(lambda x: target_reward_cdf(x, 0.0) - 0.1, -40, 40, xtol=1e-12)
        (x,) = oracle_quantiles(0.0, 0.1)
        assert x == pytest.approx(expected, abs=1e-6)
        assert x == pytest.approx(-4.745, abs=0.01)

    def test_symmetry(self):
        assert oracle_quantiles(0.0, 0.9)[0] == pytest.approx(-oracle_quantiles(0.0, 0.1)[0], abs=1e-6)

    def test_strictly_increasing_in_level(self):
        contexts = np.array([-4.0, 0.0, 4.0])
        qs = np.array([oracle_quantiles(contexts, q) for q in np.linspace(0.01, 0.99, 99)])
        assert np.all(np.diff(qs, axis=0) > 0)

    def test_cdf_inverts_quantile(self):
        contexts = np.array([-4.0, 0.0, 4.0])
        for q in (0.05, 0.3, 0.7, 0.95):
            for s, x in zip(contexts, oracle_quantiles(contexts, q)):
                assert abs(target_reward_cdf(x, s) - q) < 1e-7

    def test_domain(self):
        for q in (0.0, 1.0):
            with pytest.raises(ValueError):
                oracle_quantiles(0.0, q)

    @pytest.mark.parametrize("shape", [(3, 2), (1, 4)])
    def test_multi_column_contexts_rejected(self, shape):
        # The environment's contexts are 1-d; a second column would be ignored.
        with pytest.raises(ValueError, match="1-d contexts"):
            oracle_quantiles(np.zeros(shape), 0.1)

    def test_bracket_expands_for_extreme_levels(self):
        # The CDF at -40 is ~1e-22; a deeper tail level lies beyond it, in the
        # bracket of the components' quantiles, and must still invert.
        q = 1e-26
        (x,) = oracle_quantiles(0.0, q)
        assert x < -40.0
        assert target_reward_cdf(x, 0.0) == pytest.approx(q, rel=1e-3)

    def test_wide_component_stops_at_adjacent_floats(self):
        # A quantile near 1.2e10 has floats 2e-6 apart, coarser than the
        # bisection tolerance: the bisection stops when no float is left
        # between the bracket's ends instead of looping for ever.
        env = SynthEnvSpec(component_variances=(1.0, 1e20))
        (x,) = oracle_quantiles(0.0, 0.9, env)
        assert x == pytest.approx(1e10 * norm.ppf(0.875), rel=1e-9)
        assert target_reward_cdf(x, 0.0, env) == pytest.approx(0.9, abs=1e-12)

    def test_oracle_interval(self):
        # The oracle interval [q_lo(s), q_up(s)] at s = 0 and its shift to s = 4.
        lo = oracle_quantiles(np.array([0.0, 4.0]), 0.1)
        hi = oracle_quantiles(np.array([0.0, 4.0]), 0.9)
        assert lo[0] == pytest.approx(-4.745, abs=0.01)
        assert hi[0] == pytest.approx(4.745, abs=0.01)
        assert lo[1] - lo[0] == pytest.approx(5.0, abs=1e-12)
        assert hi[1] - hi[0] == pytest.approx(5.0, abs=1e-12)


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
        assert symmetric_difference_measure(a, PredictionInterval(-math.inf, math.inf)) == math.inf

    def test_matching_unbounded_sides(self):
        a = PredictionInterval(-math.inf, 0.0)
        b = PredictionInterval(-math.inf, 5.0)
        assert symmetric_difference_measure(a, b) == 5.0
        assert symmetric_difference_measure(
            PredictionInterval(-math.inf, math.inf), PredictionInterval(-math.inf, math.inf)
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


class TestMeanPiecewiseAffine:
    def test_closed_form_means(self):
        # S ~ N(0, 4): E|S| = 2 sqrt(2 / pi), E[(S - 1)^+] = 2 phi(1/2) - Phi(-1/2);
        # a knot twice over, a NaN knot and an infinite one change nothing.
        sd = 2.0
        hinge = sd * norm.pdf(0.5) - norm.sf(0.5)
        assert _mean_piecewise_affine(lambda c: np.abs(c[:, 0]), [0.0]) == pytest.approx(
            sd * math.sqrt(2.0 / math.pi), rel=1e-13)
        assert _mean_piecewise_affine(
            lambda c: np.maximum(c[:, 0] - 1.0, 0.0), [1.0, 1.0, math.nan, math.inf]
        ) == pytest.approx(hinge, rel=1e-13)
        assert _mean_piecewise_affine(lambda c: 3.0 + 2.0 * c[:, 0], []) == pytest.approx(3.0)


class TestEnvSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SynthEnvSpec(mixture_weights=(0.3, 0.3))

    def test_positive_variances(self):
        with pytest.raises(ValueError):
            SynthEnvSpec(component_variances=(1.0, 0.0))

    def test_lists_are_stored_as_tuples(self):
        # A spec built from lists hashes, so the oracle cache can key on it.
        env = SynthEnvSpec(mixture_weights=[0.2, 0.8], component_variances=[1.0, 16.0])
        assert env.mixture_weights == (0.2, 0.8) and env.component_variances == (1.0, 16.0)
        assert env == DEFAULT_ENV and hash(env) == hash(DEFAULT_ENV)
        assert oracle_quantiles(0.0, 0.1, env)[0] == oracle_quantiles(0.0, 0.1)[0]

    def test_target_component_variances(self):
        env = DEFAULT_ENV
        assert env.target_component_variances() == (2.0, 17.0)
