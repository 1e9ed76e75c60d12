import math
import time
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import binom

from pacope import calibrate
from pacope.behavior import rs_split_unknown
from pacope.calibrate import (
    CalibratedPredictor,
    CalibrationDiagnostics,
    binomial_quantile_k,
    calibrate_deltas,
    calibrate_model,
    calibrate_split,
    nonconformity,
    pac_threshold,
    pacopp_known,
    split_cp_inflated_level,
    split_cp_min_calibration_size,
    split_cp_threshold,
)
from pacope.cli import cli
from pacope.core import PacParams, PredictionInterval, child_rng
from pacope.quantile import QuantilePairModel
from pacope.rejection import RsDataset, RsSplit, gaussian_ratio_bound, rejection_sample
from pacope.synthenv import DEFAULT_ENV, sample_logged, sample_target

PARAMS = PacParams(0.2, 0.1, 0.5)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _band_model(lo=-1.0, up=1.0):
    return QuantilePairModel(np.array([lo, 0.0]), np.array([up, 0.0]))


def pac_threshold_argmin_oracle(scores, epsilon, delta):
    """Brute-force form of ``pac_threshold``: the smallest candidate threshold
    leaving at most ``k`` misses, the candidates being the scores and infinity."""
    values = np.asarray(scores, dtype=float).reshape(-1)
    m = values.shape[0]
    k = binomial_quantile_k(m, epsilon, delta)
    if m == 0:
        return math.inf
    for tau in np.sort(values):
        if int(np.count_nonzero(values > tau)) <= k:
            return float(tau)
    return math.inf


def _cdf_fraction(m, eps, k):
    """``F_Bin(m, eps)(k)`` as an exact Fraction, from exact binomial coefficients."""
    a, den = eps.as_integer_ratio()
    return Fraction(sum(math.comb(m, j) * a**j * (den - a) ** (m - j) for j in range(k + 1)), den**m)


def _k_oracle_exact(m, eps, delta):
    fe, fd = Fraction(eps), Fraction(delta)
    cdf = Fraction(0)
    best = -1
    pmf = (1 - fe) ** m
    for k in range(0, m):
        if k > 0:
            pmf = pmf * (m - k + 1) * fe / (k * (1 - fe))
        cdf += pmf
        if cdf <= fd:
            best = k
        else:
            break
    return best


def _k_gammaln(m, eps, delta):
    """The cutoff from scipy's ``gammaln`` log pmf, with the same slack and exact tie rule."""
    if m == 0:
        return -1
    ks = np.arange(m, dtype=float)
    log_pmf = (gammaln(m + 1.0) - gammaln(ks + 1.0) - gammaln(m - ks + 1.0)
               + ks * math.log(eps) + (m - ks) * math.log1p(-eps))
    log_cdf = np.logaddexp.accumulate(log_pmf)
    log_delta = math.log(delta)
    slack = calibrate._TIE_LOG_TOL * (1.0 + np.abs(log_cdf) + abs(log_delta))
    below = np.flatnonzero(log_cdf <= log_delta + slack)
    k = int(below[-1]) if below.size else -1
    if k >= 0 and abs(log_cdf[k] - log_delta) <= slack[k]:
        k = calibrate._cutoff_exact(m, eps, delta, k)
    return k


class TestLogFactorials:
    def test_within_four_ulp_of_lgamma(self):
        m = 200_000
        got = calibrate._log_factorials(m)
        ref = np.array([math.lgamma(j + 1.0) for j in range(m + 1)])
        assert got.shape == (m + 1,)
        assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))

    @pytest.mark.parametrize("m", [0, 1, 2, 31, 32, 33, 34, 1000])
    def test_prefix_of_the_long_table_across_the_seam(self, m):
        got = calibrate._log_factorials(m)
        assert got.shape == (m + 1,)
        assert got.tobytes() == calibrate._log_factorials(2000)[: m + 1].tobytes()
        assert got[0] == 0.0 and (m < 1 or got[1] == 0.0)


class TestCutoffMatchesGammaln:
    def test_grid(self):
        for m in (1, 2, 5, 31, 32, 33, 100, 2000, 45_000, 100_000):
            for eps in (0.01, 0.1, 0.2, 0.5, 0.9):
                for delta in (1e-9, 0.01, 0.1, 0.5, 0.9):
                    assert binomial_quantile_k(m, eps, delta) == _k_gammaln(m, eps, delta)

    def test_near_ties_reach_the_exact_rule(self, monkeypatch):
        calls, exact = [], calibrate._cutoff_exact

        def counted(*args):
            calls.append(args)
            return exact(*args)

        monkeypatch.setattr(calibrate, "_cutoff_exact", counted)
        for m in (1, 7, 32, 33, 200, 2000):
            for eps in (0.1, 0.2, 0.5):
                for k in sorted({0, m // 10, m // 5, m // 2}):
                    delta = float(binom.cdf(k, m, eps))
                    if not np.finfo(float).tiny < delta < 1.0:  # a subnormal delta is no near tie
                        continue
                    for d in (delta, float(np.nextafter(delta, 0.0)), float(np.nextafter(delta, 1.0))):
                        n = len(calls)
                        got = binomial_quantile_k(m, eps, d)
                        assert len(calls) > n
                        assert got == _k_gammaln(m, eps, d)
        assert calls


class TestBinomialQuantileK:
    def test_small_case_minus_one(self):
        # F(0) = 0.8^5 = 0.32768 > 0.1, so no k qualifies.
        assert binomial_quantile_k(5, 0.2, 0.1) == -1

    def test_median_case(self):
        # F(4) = 386/1024 <= 1/2 < F(5).
        assert binomial_quantile_k(10, 0.5, 0.5) == 4

    def test_hundred_case(self):
        assert binomial_quantile_k(100, 0.2, 0.1) == 14
        assert binom.cdf(14, 100, 0.2) <= 0.1 < binom.cdf(15, 100, 0.2)

    def test_zero_m(self):
        assert binomial_quantile_k(0, 0.2, 0.1) == -1

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            m = int(rng.integers(0, 60))
            eps = float(rng.uniform(0.01, 0.99))
            delta = float(rng.uniform(0.01, 0.99))
            assert binomial_quantile_k(m, eps, delta) == _k_oracle_exact(m, eps, delta)

    def test_exact_at_boundary_ties(self):
        # eps + delta = 1 makes F(0) = 1 - eps collide with delta at m = 1;
        # the verdict must follow exact rational arithmetic on the floats.
        for eps in (0.05, 0.14473684210526316, 0.3342105263157894):
            delta = 1.0 - eps
            assert binomial_quantile_k(1, eps, delta) == _k_oracle_exact(1, eps, delta)

    def test_boundary_deltas_match_fraction_oracle(self):
        # delta at F(k) rounded to a float, and its neighbours: each lands in
        # the tie-break, and the cutoff flips between k - 1 and k among them.
        for m in [*range(1, 301), 500, 1000]:
            k = m // 5
            cdfs = [_cdf_fraction(m, 0.2, i) for i in (k - 1, k, k + 1)]
            boundary = float(cdfs[1])
            for delta in (np.nextafter(boundary, 0.0), boundary, np.nextafter(boundary, 1.0)):
                assert cdfs[0] <= Fraction(float(delta)) < cdfs[2]
                expected = k if cdfs[1] <= Fraction(float(delta)) else k - 1
                assert binomial_quantile_k(m, 0.2, float(delta)) == expected

    def test_large_boundary_case_is_bounded_in_time(self):
        m = 100_000
        delta = float(binom.cdf(m // 5, m, 0.2))
        start = time.perf_counter()
        k = binomial_quantile_k(m, 0.2, delta)
        assert time.perf_counter() - start < 1.0
        assert k in (m // 5 - 1, m // 5)

    def test_grid_against_brute_force_summation(self):
        # Module-scale version of the acceptance grid (M <= 60).
        eps_grid = np.linspace(0.05, 0.95, 20)
        d_grid = np.linspace(0.06, 0.92, 20)
        for m in range(0, 61):
            cdfs = None if m == 0 else np.cumsum(
                binom.pmf(np.arange(0, m), m, eps_grid[:, None]), axis=1
            )
            for i, eps in enumerate(eps_grid):
                for delta in d_grid:
                    if m == 0:
                        expected = -1
                    else:
                        ok = np.flatnonzero(cdfs[i] <= delta)
                        expected = int(ok[-1]) if ok.size else -1
                    assert binomial_quantile_k(m, float(eps), float(delta)) == expected

    def test_hoeffding_sandwich_with_integer_floor(self):
        # The real-valued lower bound can overshoot an integer k by a
        # fraction; the floored form holds (upper bound needs no ceiling).
        eps_grid = np.linspace(0.05, 0.95, 10)
        d_grid = np.linspace(0.06, 0.92, 10)
        for m in range(1, 301, 7):
            for eps in eps_grid:
                for delta in d_grid:
                    k = binomial_quantile_k(m, float(eps), float(delta))
                    if k == -1:
                        continue
                    lo = math.floor(m * (eps - math.sqrt(math.log(1 / delta) / (2 * m))))
                    hi = m * (eps + math.sqrt(math.log(1 / (1 - delta)) / (2 * m)))
                    assert lo <= k <= hi

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 400), eps=_OPEN_UNIT, delta=_OPEN_UNIT)
    def test_steps_by_at_most_one_in_m(self, m, eps, delta):
        k = binomial_quantile_k(m, eps, delta)
        assert k <= binomial_quantile_k(m + 1, eps, delta) <= k + 1

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 400), eps=_OPEN_UNIT, deltas=st.tuples(_OPEN_UNIT, _OPEN_UNIT))
    def test_nondecreasing_in_delta(self, m, eps, deltas):
        d1, d2 = sorted(deltas)
        assert binomial_quantile_k(m, eps, d1) <= binomial_quantile_k(m, eps, d2)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 400), epss=st.tuples(_OPEN_UNIT, _OPEN_UNIT), delta=_OPEN_UNIT)
    def test_nondecreasing_in_epsilon(self, m, epss, delta):
        e1, e2 = sorted(epss)
        assert binomial_quantile_k(m, e1, delta) <= binomial_quantile_k(m, e2, delta)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            binomial_quantile_k(-1, 0.2, 0.1)
        with pytest.raises(ValueError):
            binomial_quantile_k(5, 0.0, 0.1)
        with pytest.raises(ValueError):
            binomial_quantile_k(5, 0.2, 1.0)


class TestNonconformity:
    def test_outside_above(self):
        assert nonconformity(_band_model(), 0.0, 2.0) == 1.0

    def test_inside_negative(self):
        assert nonconformity(_band_model(), 0.0, 0.0) == -1.0

    def test_degenerate_band(self):
        assert nonconformity(_band_model(0.0, 0.0), 0.0, 0.0) == 0.0


class TestPacThreshold:
    def test_k_minus_one_gives_infinity(self):
        assert pac_threshold(np.array([3.0, 1.0, 2.0, 0.5, 9.0]), 0.2, 0.1) == math.inf

    def test_order_statistic_selection(self):
        scores = np.arange(1.0, 11.0)
        assert pac_threshold(scores, 0.5, 0.5) == 6.0

    def test_empty_scores(self):
        assert pac_threshold(np.array([]), 0.2, 0.1) == math.inf

    def test_matches_argmin_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            m = int(rng.integers(1, 201))
            scores = rng.normal(size=m) * float(rng.uniform(0.5, 5.0))
            eps = float(rng.uniform(0.05, 0.5))
            delta = float(rng.uniform(0.05, 0.5))
            a = pac_threshold(scores, eps, delta)
            b = pac_threshold_argmin_oracle(scores, eps, delta)
            assert a == b or (math.isinf(a) and math.isinf(b))

    def test_oracle_with_all_equal_scores(self):
        scores = np.full(50, 2.5)
        assert pac_threshold_argmin_oracle(scores, 0.2, 0.3) == 2.5
        assert pac_threshold(scores, 0.2, 0.3) == 2.5

    def test_monotone_in_delta_and_epsilon(self):
        rng = np.random.default_rng(22)
        scores = rng.normal(size=120)
        grid = np.linspace(0.01, 0.5, 25)
        thr_d = [pac_threshold(scores, 0.2, d) for d in grid]
        assert all(a >= b for a, b in zip(thr_d, thr_d[1:]))
        thr_e = [pac_threshold(scores, e, 0.1) for e in grid]
        assert all(a >= b for a, b in zip(thr_e, thr_e[1:]))


class TestSplitCp:
    def test_level_index(self):
        scores = np.arange(1.0, 10.0)  # M = 9
        assert split_cp_threshold(scores, 0.8) == 8.0

    def test_single_score_overflows_to_infinity(self):
        assert split_cp_threshold(np.array([4.0]), 0.9) == math.inf

    def test_empty_scores_give_infinite_threshold(self):
        assert split_cp_threshold(np.array([]), 0.8) == math.inf

    def test_inflated_level_arithmetic(self):
        assert split_cp_inflated_level(0.2, 0.1, 100) == pytest.approx(0.9072983, abs=1e-6)
        assert split_cp_min_calibration_size(0.2, 0.1) == 29

    def test_level_domain(self):
        with pytest.raises(ValueError):
            split_cp_threshold(np.array([1.0]), 0.0)


class TestPredict:
    def _predictor(self, threshold, k=0, m=10):
        diag = CalibrationDiagnostics(
            n_rs=20, m_cal=m, k=k, tie_flag=False, weight_violations=0, bound=2.0,
        )
        return CalibratedPredictor(_band_model(), threshold, PARAMS, diag)

    def test_zero_threshold(self):
        p = self._predictor(0.0)
        assert p.predict(0.0) == PredictionInterval(-1.0, 1.0)

    def test_infinite_threshold(self):
        diag = CalibrationDiagnostics(n_rs=0, m_cal=0, k=-1, tie_flag=False, weight_violations=0, bound=1.0)
        p = CalibratedPredictor(_band_model(), math.inf, PARAMS, diag)
        iv = p.predict(0.0)
        assert iv.lo == -math.inf and iv.hi == math.inf

    def test_half_threshold(self):
        p = self._predictor(0.5)
        assert p.predict(0.0) == PredictionInterval(-1.5, 1.5)

    def test_threshold_infinity_invariant(self):
        diag = CalibrationDiagnostics(n_rs=10, m_cal=5, k=2, tie_flag=False, weight_violations=0, bound=2.0)
        with pytest.raises(ValueError):
            CalibratedPredictor(_band_model(), math.inf, PARAMS, diag)
        diag_deg = CalibrationDiagnostics(n_rs=10, m_cal=0, k=-1, tie_flag=False, weight_violations=0, bound=2.0)
        with pytest.raises(ValueError):
            CalibratedPredictor(_band_model(), 1.0, PARAMS, diag_deg)

    def test_membership_duality(self):
        rng = np.random.default_rng(30)
        p = self._predictor(0.37)
        contexts = rng.normal(size=10000)
        rewards = rng.normal(size=10000) * 3
        scores = nonconformity(p.model, contexts, rewards)
        via_scores = scores <= p.threshold
        lo, hi = p.interval_batch(contexts)
        via_interval = (rewards >= lo) & (rewards <= hi)
        assert np.array_equal(via_scores, via_interval)

    def test_width_identity(self):
        p = self._predictor(0.37)
        for s in (-2.0, 0.0, 1.5):
            iv = p.predict(s)
            lo, up = p.model.quantiles(s)
            assert iv.length() == pytest.approx(float(up[0] - lo[0]) + 2 * 0.37)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 2))
    def test_row_does_not_depend_on_its_batch(self, data, dim):
        # Each row of a batch, and predict at its context, equal the one-row call bit for bit.
        values = st.floats(-1e3, 1e3)
        w_lo, w_up = (np.array(data.draw(st.lists(values, min_size=dim + 1, max_size=dim + 1)))
                      for _ in range(2))
        ctx = np.array(data.draw(st.lists(
            st.lists(values, min_size=dim, max_size=dim), min_size=1, max_size=80,
        )))
        diag = CalibrationDiagnostics(n_rs=20, m_cal=10, k=0, tie_flag=False, weight_violations=0, bound=2.0)
        model = QuantilePairModel(w_lo, w_up)
        p = CalibratedPredictor(model, data.draw(st.floats(-10.0, 10.0)), PARAMS, diag)
        lo, hi = p.interval_batch(ctx)
        for i, row in enumerate(ctx):
            one_lo, one_hi = p.interval_batch(row[None, :])
            assert one_lo.tobytes() == lo[i:i + 1].tobytes()
            assert one_hi.tobytes() == hi[i:i + 1].tobytes()
            iv = p.predict(row)
            if lo[i] > hi[i]:
                assert iv is None
            else:
                assert (iv.lo, iv.hi) == (lo[i], hi[i])

    @staticmethod
    def _wide_band(threshold, k):
        """A band of weights [-4.9, 1.49] and [5.23, 1.13], whose ends overflow at 1e308."""
        model = QuantilePairModel(np.array([-4.9, 1.49]), np.array([5.23, 1.13]))
        diag = CalibrationDiagnostics(n_rs=20, m_cal=10, k=k, tie_flag=False, weight_violations=0, bound=2.0)
        return CalibratedPredictor(model, threshold, PARAMS, diag)

    @pytest.mark.parametrize(("s", "message"), [
        (math.inf, "NaN or infinite"), (math.nan, "NaN or infinite"), (1e308, "overflows"),
    ])
    def test_batch_rejects_non_finite_context_or_interval(self, s, message):
        p = self._wide_band(-0.5, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                p.interval_batch([[0.0], [s]])
            with pytest.raises(ValueError, match=message):
                p.predict(s)

    def test_trivial_batch_is_whole_line_where_band_overflows(self):
        p = self._wide_band(math.inf, -1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = p.interval_batch([[0.0], [1e308], [-1e308]])
            assert p.predict(1e308) == PredictionInterval(-math.inf, math.inf)
        assert np.all(lo == -math.inf) and np.all(hi == math.inf)
        with pytest.raises(ValueError, match="NaN or infinite"):
            p.interval_batch([[math.nan]])
        with pytest.raises(ValueError, match="dimension"):
            p.interval_batch([[0.0, 1.0]])

    def test_context_dimension_must_match_model(self):
        model = QuantilePairModel(np.array([-1.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
        diag = CalibrationDiagnostics(n_rs=20, m_cal=10, k=0, tie_flag=False, weight_violations=0, bound=2.0)
        p = CalibratedPredictor(model, 0.5, PARAMS, diag)
        assert p.predict([0.5, 0.25]) == PredictionInterval(-0.5, 2.5)
        for s in (0.5, [0.5, 0.25, 1.0], [[0.5, 0.25], [0.0, 0.0]]):
            with pytest.raises(ValueError, match="dimension"):
                p.predict(s)
        with pytest.raises(ValueError, match="dimension"):
            self._predictor(0.5).predict([0.5, 0.7])


def _random_rs(rng, n, dim, ties):
    contexts = rng.standard_normal((n, dim))
    rewards = contexts.sum(axis=1) + 2.0 * rng.standard_normal(n)
    if ties:
        rewards = np.round(rewards)
    return RsDataset(contexts, rewards, np.arange(n))


class TestCalibrateSplitProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        n_train=st.integers(0, 60),
        m_cal=st.integers(0, 500),
        dim=st.integers(1, 2),
        ties=st.booleans(),
        epsilon=st.floats(0.02, 0.5),
        delta=st.floats(0.01, 0.5),
        violations=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracles(self, n_train, m_cal, dim, ties, epsilon, delta, violations, seed):
        rng = np.random.default_rng(seed)
        train = _random_rs(rng, n_train, dim, ties)
        cal = _random_rs(rng, m_cal, dim, ties)
        params = PacParams(epsilon, delta)
        split = RsSplit(train, cal, violations=violations, bound=2.0)
        pred = calibrate_split(split, params)
        diag = pred.diagnostics
        assert diag.weight_violations == violations
        assert diag.m_cal == m_cal
        assert split.degenerate == (n_train < 2 or m_cal == 0)
        assert diag.trivial == (diag.k == -1) == math.isinf(pred.threshold)
        assert diag.trivial or not split.degenerate
        if not split.degenerate:
            scores = nonconformity(pred.model, cal.contexts, cal.rewards)
            assert pred.threshold == pac_threshold_argmin_oracle(scores, epsilon, delta)
            assert diag.k == binomial_quantile_k(m_cal, epsilon, delta)
            assert diag.tie_flag == (np.unique(scores).size < m_cal)

    def test_tie_flag_marks_a_repeated_score(self):
        rng = np.random.default_rng(3)
        train, cal = _random_rs(rng, 40, 1, ties=False), _random_rs(rng, 30, 1, ties=False)
        repeated = RsDataset(np.vstack([cal.contexts, cal.contexts[:1]]),
                             np.append(cal.rewards, cal.rewards[0]), np.arange(31))
        flags = [calibrate_split(RsSplit(train, c, violations=0, bound=2.0), PARAMS).diagnostics.tie_flag
                 for c in (cal, repeated)]
        assert flags == [False, True]

    def test_non_finite_scores_rejected(self):
        train = _random_rs(np.random.default_rng(0), 20, 1, ties=False)
        cal = RsDataset(np.zeros((2, 1)), np.array([0.0, math.nan]), np.arange(2))
        with pytest.raises(ValueError, match="scores must be finite"):
            calibrate_split(RsSplit(train, cal, violations=0, bound=2.0), PARAMS)


def _known_split(seed):
    """``pacopp_known``'s sampling stage on 2000 default logged triples."""
    d = sample_logged(2000, child_rng(seed, 0))
    pe, pb = DEFAULT_ENV.target_policy(), DEFAULT_ENV.behavior_policy()
    bound = gaussian_ratio_bound(pe, pb, d.contexts)
    rs = rejection_sample(d, pe, pb, bound, child_rng(seed, 1))
    return RsSplit(*rs.split(PARAMS.gamma), rs.n_violations, bound)


def _unknown_split(seed):
    d = sample_logged(2000, child_rng(seed, 0))
    return rs_split_unknown(d, DEFAULT_ENV.target_policy(), PARAMS.gamma, child_rng(seed, 1))


class TestCalibrateModel:
    @pytest.mark.parametrize("make_split", [_known_split, _unknown_split], ids=["known", "unknown"])
    def test_equals_calibrate_split(self, make_split):
        for seed in range(3):
            split = make_split(seed)
            pred = calibrate_split(split, PARAMS)
            again = calibrate_model(pred.model, split, PARAMS)
            assert again.model is pred.model
            assert (again.threshold, again.params, again.diagnostics) == (
                pred.threshold, pred.params, pred.diagnostics)

    @pytest.mark.parametrize("delta", [0.5, 0.25, 0.01, 1e-6])
    def test_other_delta_matches_cutoff_and_threshold(self, delta):
        split = _unknown_split(4)
        pred = calibrate_split(split, PARAMS)
        params = PacParams(PARAMS.epsilon, delta, PARAMS.gamma)
        again = calibrate_model(pred.model, split, params)
        scores = nonconformity(pred.model, split.cal.contexts, split.cal.rewards)
        m = len(split.cal)
        assert again.params == params
        assert again.threshold == pac_threshold(scores, PARAMS.epsilon, delta)
        assert again.diagnostics.k == binomial_quantile_k(m, PARAMS.epsilon, delta)
        assert again.diagnostics == replace(pred.diagnostics, k=again.diagnostics.k)

    @pytest.mark.parametrize(("n_train", "m_cal"), [(0, 30), (1, 30), (40, 0)])
    def test_degenerate_split_is_trivial_whatever_the_model(self, n_train, m_cal):
        rng = np.random.default_rng(5)
        split = RsSplit(_random_rs(rng, n_train, 1, ties=False), _random_rs(rng, m_cal, 1, ties=False),
                        violations=2, bound=3.0)
        model = QuantilePairModel(np.array([-1.5, 0.3]), np.array([2.0, 1.1]))
        pred = calibrate_model(model, split, PARAMS)
        diag = pred.diagnostics
        assert pred.model is model
        assert pred.threshold == math.inf and diag.k == -1 and diag.trivial
        assert (diag.n_rs, diag.m_cal, diag.weight_violations, diag.bound) == (n_train + m_cal, m_cal, 2, 3.0)


class TestCalibrateDeltas:
    @settings(max_examples=80, deadline=None)
    @given(
        n_train=st.integers(0, 40),
        m_cal=st.integers(1, 3000),
        ties=st.booleans(),
        epsilon=st.floats(0.02, 0.5),
        boundary=st.booleans(),
        below_first=st.booleans(),
        deltas=st.lists(_OPEN_UNIT, min_size=0, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_train=1, m_cal=30, ties=True, epsilon=0.2, boundary=False, below_first=True,
             deltas=[0.5, 0.1], seed=0)
    @example(n_train=40, m_cal=5, ties=False, epsilon=0.2, boundary=False, below_first=False,
             deltas=[0.1, 0.5], seed=1)
    @example(n_train=40, m_cal=2999, ties=True, epsilon=0.2, boundary=True, below_first=True,
             deltas=[0.25], seed=2)
    def test_equals_calibrate_model_at_each_delta(
        self, n_train, m_cal, ties, epsilon, boundary, below_first, deltas, seed
    ):
        # One pass at many deltas gives, delta by delta, what calibrate_model
        # gives alone: the cutoff, the threshold's bits, the tie flag and every
        # other diagnostic. The deltas may be the float neighbours of F(m // 5)
        # at epsilon 0.2, where the exact tie-break decides the cutoff
        # (TestBinomialQuantileK), or one below F(0), whose cutoff is -1.
        if boundary:  # F(k) as a fraction stays cheap up to m = 300
            m_cal, epsilon = 1 + m_cal % 300, 0.2
            edge = float(_cdf_fraction(m_cal, epsilon, m_cal // 5))
            deltas += [float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, 1.0))]
        low = (1.0 - epsilon) ** m_cal / 2.0
        if below_first and low > 0.0:
            deltas.append(low)
        rng = np.random.default_rng(seed)
        split = RsSplit(_random_rs(rng, n_train, 1, ties), _random_rs(rng, m_cal, 1, ties),
                        violations=3, bound=2.5)
        params = PacParams(epsilon, 0.5)
        # A flat band scores rounded rewards with ties.
        model = QuantilePairModel(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        preds = calibrate_deltas(model, split, params, deltas)
        assert len(preds) == len(deltas)
        degenerate = n_train < 2
        assert split.degenerate == degenerate
        scores = nonconformity(model, split.cal.contexts, split.cal.rewards)
        for delta, pred in zip(deltas, preds):
            alone = calibrate_model(model, split, replace(params, delta=delta))
            assert pred.model is model and pred.params == alone.params
            assert pred.params.delta == delta
            assert pred.diagnostics == alone.diagnostics
            assert np.float64(pred.threshold).tobytes() == np.float64(alone.threshold).tobytes()
            diag = pred.diagnostics
            assert diag.trivial == math.isinf(pred.threshold)
            if degenerate:
                assert diag.k == -1 and pred.threshold == math.inf and not diag.tie_flag
                continue
            assert diag.k == binomial_quantile_k(m_cal, epsilon, delta)
            assert diag.k == -1 or delta != low
            assert pred.threshold == pac_threshold(scores, epsilon, delta)
            assert diag.tie_flag == (np.unique(scores).size < m_cal)


class TestPacoppKnown:
    ENV = DEFAULT_ENV

    def test_identical_policies_pac_property(self):
        # pi_e = pi_b: everything is accepted and the guarantee applies to
        # the logged distribution itself (light version: 60 runs).
        pb = self.ENV.behavior_policy()
        hits = 0
        runs = 60
        for seed in range(runs):
            d = sample_logged(2000, child_rng(4000 + seed, 0))
            pred = pacopp_known(
                d, pb, pb, PARAMS, child_rng(4000 + seed, 1),
            )
            assert pred.diagnostics.n_rs == 2000
            test = sample_logged(4000, child_rng(4000 + seed, 2))
            lo, hi = pred.interval_batch(test.contexts)
            miss = float(np.mean((test.rewards < lo) | (test.rewards > hi)))
            hits += miss <= PARAMS.epsilon
        assert hits / runs >= 0.9 - 3 * math.sqrt(0.09 / runs)

    def test_empty_dataset_trivial(self):
        from pacope.core import GaussianLinearPolicy, LoggedDataset

        expected = CalibrationDiagnostics(
            n_rs=0, m_cal=0, k=-1, tie_flag=False, weight_violations=0, bound=1.0,
        )
        for dim in (1, 2):
            pb = GaussianLinearPolicy(np.zeros(dim), 0.0, 4.0)
            pe = GaussianLinearPolicy(np.zeros(dim), 0.0, 1.0)
            pred = pacopp_known(LoggedDataset.empty(dim), pb, pe, PARAMS, child_rng(0))
            assert pred.diagnostics == expected
            assert pred.model.context_dim == dim
            iv = pred.predict(np.zeros(dim))
            assert iv.lo == -math.inf and iv.hi == math.inf

    def test_diagnostics_populated(self):
        d = sample_logged(2000, child_rng(50, 0))
        pred = pacopp_known(
            d, self.ENV.behavior_policy(), self.ENV.target_policy(), PARAMS,
            child_rng(50, 1),
        )
        diag = pred.diagnostics
        assert diag.bound == 2.0
        assert diag.m_cal == math.ceil(diag.n_rs * 0.5)
        assert diag.k == binomial_quantile_k(diag.m_cal, 0.2, 0.1)
        assert diag.weight_violations == 0
        assert not diag.trivial

    @pytest.mark.parametrize(("seed", "s"), [(1, 1000.0), (4, -1000.0)])
    def test_empty_interval_past_the_crossing(self, seed, s):
        # A negative threshold empties the band where the fitted lines cross.
        d = sample_logged(2000, child_rng(seed, 0))
        pred = pacopp_known(
            d, self.ENV.behavior_policy(), self.ENV.target_policy(), PacParams(0.2, 0.5, 0.5),
            child_rng(seed, 1),
        )
        assert pred.threshold < 0.0
        (lo,), (hi,) = pred.interval_batch([s])
        assert lo > hi
        assert pred.predict(s) is None
        assert pred.predict(0.0) == PredictionInterval(*(float(v[0]) for v in pred.interval_batch([0.0])))

    def test_interval_of_a_context_does_not_depend_on_its_batch(self):
        # 20 fitted predictors, 64 target contexts each: every one-row call
        # equals its row of the 64-row call bit for bit.
        mismatches = 0
        for seed in range(20):
            d = sample_logged(2000, child_rng(seed, 0))
            pred = pacopp_known(
                d, self.ENV.behavior_policy(), self.ENV.target_policy(), PARAMS,
                child_rng(seed, 1),
            )
            ctx = sample_target(64, child_rng(seed, 2)).contexts
            lo, hi = pred.interval_batch(ctx)
            for i in range(len(ctx)):
                one_lo, one_hi = pred.interval_batch(ctx[i:i + 1])
                mismatches += one_lo.tobytes() != lo[i:i + 1].tobytes()
                mismatches += one_hi.tobytes() != hi[i:i + 1].tobytes()
        assert mismatches == 0

    def test_deterministic(self):
        d = sample_logged(500, child_rng(51, 0))
        args = (d, self.ENV.behavior_policy(), self.ENV.target_policy(), PARAMS)
        p1 = pacopp_known(*args, child_rng(51, 1))
        p2 = pacopp_known(*args, child_rng(51, 1))
        assert p1.threshold == p2.threshold
        assert p1.predict(0.3) == p2.predict(0.3)


class TestPredictorSerialization:
    def test_round_trip_exact(self):
        d = sample_logged(800, child_rng(60, 0))
        pred = pacopp_known(
            d, DEFAULT_ENV.behavior_policy(), DEFAULT_ENV.target_policy(), PARAMS,
            child_rng(60, 1),
        )
        back = CalibratedPredictor.load(pred.dump())
        assert back.threshold == pred.threshold
        assert back.params == pred.params
        assert back.diagnostics == pred.diagnostics
        grid = np.linspace(-5, 5, 33)
        assert np.array_equal(back.interval_batch(grid)[0], pred.interval_batch(grid)[0])
        assert np.array_equal(back.interval_batch(grid)[1], pred.interval_batch(grid)[1])

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 2),
        params=st.builds(PacParams, _OPEN_UNIT, _OPEN_UNIT, _OPEN_UNIT),
        m_cal=st.integers(0, 10**6),
        counts=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        flags=st.tuples(st.booleans(), st.booleans()),
        bound=st.floats(1.0, allow_nan=False),
    )
    def test_round_trip_is_bit_exact(self, data, dim, params, m_cal, counts, flags, bound):
        weights = st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=dim + 1, max_size=dim + 1
        )
        w_lo, w_up = np.array(data.draw(weights)), np.array(data.draw(weights))
        model = QuantilePairModel(w_lo, w_up)
        k = data.draw(st.integers(-1, m_cal - 1))
        threshold = math.inf if k == -1 else data.draw(st.floats(0.0, allow_infinity=False))
        # Consistent diagnostics: n_rs >= m_cal.
        tie_flag, clamped = flags
        diag = CalibrationDiagnostics(
            n_rs=m_cal + counts[0], m_cal=m_cal, k=k, tie_flag=tie_flag, weight_violations=counts[1],
            bound=bound, variance_clamped=clamped,
        )
        pred = CalibratedPredictor(model, threshold, params, diag)
        back = CalibratedPredictor.load(pred.dump())
        assert back.model.w_lo.tobytes() == w_lo.tobytes()
        assert back.model.w_up.tobytes() == w_up.tobytes()
        assert (back.threshold, back.params, back.diagnostics) == (threshold, params, diag)
        assert back.dump() == pred.dump()

    GOLDEN = (
        "epsilon=0.2\ndelta=0.05\ngamma=0.4\n"
        "threshold=0.4375\n"
        "n_rs=1234\nm_cal=494\nk=85\ntie_flag=1\nweight_violations=3\n"
        "bound=2.5\nvariance_clamped=1\n"
        "w_lo=-1.5 0.25 -0.125\nw_up=2.0 0.5 0.001\n"
    )
    # The same predictor in the two older formats: with the quantile levels
    # stored, and before that with every derived line too. Either is a file
    # of unknown fields, the first of them ``eps_lo``.
    STORED_LEVELS_FORMAT = (
        "epsilon=0.2\ndelta=0.05\ngamma=0.4\neps_lo=0.1\neps_up=0.9\n"
        "threshold=0.4375\n"
        "n_rs=1234\nm_cal=494\nk=85\ntie_flag=1\nweight_violations=3\n"
        "bound=2.5\nvariance_clamped=1\n"
        "w_lo=-1.5 0.25 -0.125\nw_up=2.0 0.5 0.001\n"
    )
    DERIVED_LINES_FORMAT = (
        "epsilon=0.2\ndelta=0.05\ngamma=0.4\neps_lo=0.1\neps_up=0.9\n"
        "threshold=0.4375\n"
        "n_rs=1234\nm_cal=494\nk=85\ntie_flag=1\nweight_violations=3\ntrivial=0\n"
        "bound=2.5\nvariance_clamped=1\n"
        "model.kind=affine\nmodel.eps_lo=0.1\nmodel.eps_up=0.9\n"
        "model.lo.0.shape=3\nmodel.lo.0.values=-1.5 0.25 -0.125\n"
        "model.up.0.shape=3\nmodel.up.0.values=2.0 0.5 0.001\n"
    )

    def test_golden_bytes(self):
        params = PacParams(0.2, 0.05, 0.4)
        model = QuantilePairModel(np.array([-1.5, 0.25, -0.125]), np.array([2.0, 0.5, 0.001]))
        diag = CalibrationDiagnostics(n_rs=1234, m_cal=494, k=85, tie_flag=True, weight_violations=3,
                                      bound=2.5, variance_clamped=True)
        pred = CalibratedPredictor(model, 0.4375, params, diag)
        assert pred.dump() == self.GOLDEN
        back = CalibratedPredictor.load(self.GOLDEN)
        assert (back.threshold, back.params, back.diagnostics) == (0.4375, params, diag)
        assert back.model.w_lo.tobytes() == model.w_lo.tobytes()
        assert back.model.w_up.tobytes() == model.w_up.tobytes()

    @pytest.mark.parametrize("name", ["STORED_LEVELS_FORMAT", "DERIVED_LINES_FORMAT"])
    def test_old_format_rejected(self, name, tmp_path, capsys):
        text = getattr(self, name)
        with pytest.raises(ValueError, match="predictor file: unknown field 'eps_lo'"):
            CalibratedPredictor.load(text)
        path = tmp_path / "old.txt"
        path.write_text(text)
        assert cli(["predict", "--model", str(path), "--s", "0.5"]) == 2
        assert "unknown field 'eps_lo'" in capsys.readouterr().err

    def test_trivial_round_trip(self):
        empty = RsDataset.empty(1)
        pred = calibrate_split(RsSplit(empty, empty, violations=0, bound=1.0), PARAMS)
        back = CalibratedPredictor.load(pred.dump())
        assert math.isinf(back.threshold)
        assert back.diagnostics.trivial
