import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from pacope.calibrate import (
    CalibratedPredictor,
    CalibrationDiagnostics,
    binomial_quantile_k,
    calibrate_split,
    nonconformity,
    pac_threshold,
    pac_threshold_argmin_oracle,
    pacopp_known,
    split_cp_inflated_level,
    split_cp_min_calibration_size,
    split_cp_threshold,
)
from pacope.core import PacParams, PredictionInterval, child_rng
from pacope.quantile import QuantilePairModel
from pacope.rejection import RsDataset, RsSplit
from pacope.synthenv import DEFAULT_ENV, sample_logged, sample_target

PARAMS = PacParams(0.2, 0.1, 0.5)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# Levels kept in [1e-3, 1 - 1e-3]: with delta within an ulp of 1 and a tiny
# epsilon the cutoff falls into the exact rational tie-break, whose cost has no
# bound (14 s at m = 78, epsilon = 2e-117).
_LEVEL = st.floats(1e-3, 1.0 - 1e-3)


def _band_model(lo=-1.0, up=1.0):
    return QuantilePairModel(np.array([lo, 0.0]), np.array([up, 0.0]), (0.1, 0.9))


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
    @given(m=st.integers(0, 400), eps=_LEVEL, delta=_LEVEL)
    def test_steps_by_at_most_one_in_m(self, m, eps, delta):
        k = binomial_quantile_k(m, eps, delta)
        assert k <= binomial_quantile_k(m + 1, eps, delta) <= k + 1

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 400), eps=_LEVEL, deltas=st.tuples(_LEVEL, _LEVEL))
    def test_nondecreasing_in_delta(self, m, eps, deltas):
        d1, d2 = sorted(deltas)
        assert binomial_quantile_k(m, eps, d1) <= binomial_quantile_k(m, eps, d2)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 400), epss=st.tuples(_LEVEL, _LEVEL), delta=_LEVEL)
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
            n_rs=20, m_cal=m, k=k, tie_flag=False, weight_violations=0,
            trivial=math.isinf(threshold), bound=2.0,
        )
        return CalibratedPredictor(_band_model(), threshold, PARAMS, diag)

    def test_zero_threshold(self):
        p = self._predictor(0.0)
        assert p.predict(0.0) == PredictionInterval(-1.0, 1.0)

    def test_infinite_threshold(self):
        diag = CalibrationDiagnostics(0, 0, -1, False, 0, True, 1.0)
        p = CalibratedPredictor(_band_model(), math.inf, PARAMS, diag)
        iv = p.predict(0.0)
        assert iv.is_trivial

    def test_half_threshold(self):
        p = self._predictor(0.5)
        assert p.predict(0.0) == PredictionInterval(-1.5, 1.5)

    def test_threshold_infinity_invariant(self):
        diag = CalibrationDiagnostics(10, 5, 2, False, 0, False, 2.0)
        with pytest.raises(ValueError):
            CalibratedPredictor(_band_model(), math.inf, PARAMS, diag)
        diag_deg = CalibrationDiagnostics(10, 0, -1, False, 0, True, 2.0)
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

    def test_context_dimension_must_match_model(self):
        model = QuantilePairModel(
            np.array([-1.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.0]), (0.1, 0.9)
        )
        diag = CalibrationDiagnostics(20, 10, 0, False, 0, False, 2.0)
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
        pred = calibrate_split(RsSplit(train, cal, violations=violations, bound=2.0), params)
        diag = pred.diagnostics
        assert diag.weight_violations == violations
        assert diag.m_cal == m_cal
        assert diag.trivial == (n_train < 2 or m_cal == 0)
        assert math.isinf(pred.threshold) == (diag.k == -1 or m_cal == 0)
        if not diag.trivial:
            scores = nonconformity(pred.model, cal.contexts, cal.rewards)
            assert pred.threshold == pac_threshold_argmin_oracle(scores, epsilon, delta)
            assert diag.k == binomial_quantile_k(m_cal, epsilon, delta)
            assert diag.tie_flag == (np.unique(scores).size < m_cal)

    def test_non_finite_scores_rejected(self):
        train = _random_rs(np.random.default_rng(0), 20, 1, ties=False)
        cal = RsDataset(np.zeros((2, 1)), np.array([0.0, math.nan]), np.arange(2))
        with pytest.raises(ValueError, match="scores must be finite"):
            calibrate_split(RsSplit(train, cal, violations=0, bound=2.0), PARAMS)


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
        from pacope.core import LoggedDataset

        pred = pacopp_known(
            LoggedDataset.empty(), self.ENV.behavior_policy(), self.ENV.target_policy(),
            PARAMS, child_rng(0),
        )
        assert pred.diagnostics.trivial
        assert pred.predict(0.0).is_trivial

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
        flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        bound=st.floats(1.0, allow_nan=False),
    )
    def test_round_trip_is_bit_exact(self, data, dim, params, m_cal, counts, flags, bound):
        weights = st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=dim + 1, max_size=dim + 1
        )
        w_lo, w_up = np.array(data.draw(weights)), np.array(data.draw(weights))
        model = QuantilePairModel(w_lo, w_up, (params.eps_lo, params.eps_up))
        k = data.draw(st.integers(-1, m_cal - 1))
        degenerate = k == -1 or m_cal == 0
        threshold = math.inf if degenerate else data.draw(st.floats(0.0, allow_infinity=False))
        tie_flag, trivial, clamped = flags
        diag = CalibrationDiagnostics(
            counts[0], m_cal, k, tie_flag, counts[1], trivial, bound, clamped
        )
        pred = CalibratedPredictor(model, threshold, params, diag)
        back = CalibratedPredictor.load(pred.dump())
        assert back.model.w_lo.tobytes() == w_lo.tobytes()
        assert back.model.w_up.tobytes() == w_up.tobytes()
        assert back.model.levels == model.levels
        assert (back.threshold, back.params, back.diagnostics) == (threshold, params, diag)
        assert back.dump() == pred.dump()

    GOLDEN = (
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
        model = QuantilePairModel(
            np.array([-1.5, 0.25, -0.125]), np.array([2.0, 0.5, 0.001]),
            (params.eps_lo, params.eps_up),
        )
        diag = CalibrationDiagnostics(1234, 494, 85, True, 3, False, 2.5, True)
        pred = CalibratedPredictor(model, 0.4375, params, diag)
        assert pred.dump() == self.GOLDEN
        back = CalibratedPredictor.load(self.GOLDEN)
        assert (back.threshold, back.params, back.diagnostics) == (0.4375, params, diag)
        assert back.model.levels == model.levels
        assert back.model.w_lo.tobytes() == model.w_lo.tobytes()
        assert back.model.w_up.tobytes() == model.w_up.tobytes()

    def test_trivial_round_trip(self):
        from pacope.calibrate import _trivial_predictor

        pred = _trivial_predictor(PARAMS, 1, n_rs=0, m_cal=0, violations=0, bound=1.0)
        back = CalibratedPredictor.load(pred.dump())
        assert math.isinf(back.threshold)
        assert back.diagnostics.trivial
