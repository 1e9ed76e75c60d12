import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from pacope import quantile
from pacope.core import PacParams, child_rng
from pacope.quantile import (
    QuantilePairModel,
    fit_quantile_pair,
    trivial_quantile_model,
)
from pacope.rejection import RsDataset
from pacope.synthenv import oracle_quantiles, sample_target

PARAMS_10_90 = PacParams(0.2, 0.1)


def pinball_loss(u, level):
    """The fit's objective, the check function: ``u * level`` above 0, ``u * (level - 1)`` below."""
    return np.where(u >= 0.0, u * level, u * (level - 1.0))


def _as_train(target):
    return RsDataset(target.contexts, target.rewards, np.arange(len(target)))


def _highs_fit(ctx, y, level):
    """Weights and optimal total loss of the primal pinball LP
    ``min level 1'u + (1 - level) 1'v  s.t.  X w + u - v = y,  u, v >= 0``,
    solved by HiGHS's dual simplex: an oracle independent of the fitter."""
    n = len(y)
    x1 = np.hstack([np.ones((n, 1)), ctx])
    p = x1.shape[1]
    eye = sparse.identity(n, format="csr")
    result = linprog(
        np.concatenate([np.zeros(p), np.full(n, level), np.full(n, 1.0 - level)]),
        A_eq=sparse.hstack([sparse.csr_matrix(x1), eye, -eye], format="csr"), b_eq=y,
        bounds=[(None, None)] * p + [(0.0, None)] * (2 * n), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.status == 0, result.message
    return result.x[:p], result.fun


def _certificate(ctx, y, w, a, level):
    """Duality gap and equality residual of ``(w, a)`` in the units of the stop
    rule, computed from scratch; ``a`` must lie in the unit box."""
    assert np.all((0.0 <= a) & (a <= 1.0))
    n = len(y)
    x1 = np.hstack([np.ones((n, 1)), ctx])
    loss = float(np.sum(pinball_loss(y - x1 @ w, level)))
    scale = float(np.mean(np.abs(y))) or 1.0
    gap = (loss - float(y @ a) + (1.0 - level) * float(np.sum(y))) / (n * scale)
    u, sv, _ = np.linalg.svd(x1, full_matrices=False)
    q = u[:, : int(np.sum(sv > sv[0] * n * np.finfo(float).eps))]
    residual = float(np.max(np.abs((1.0 - level) * q.sum(axis=0) - q.T @ a)))
    return gap, residual / math.sqrt(n)


def _assert_certified(ctx, y, levels):
    """Each level's weights and duals pass the stop rule; returns the weights."""
    weights, duals = quantile._fit_levels(ctx, y, levels)
    for level, w, a in zip(levels, weights, duals):
        gap, residual = _certificate(ctx, y, w, a, level)
        assert gap <= quantile._LP_GAP_TOL and residual <= quantile._LP_GAP_TOL
    return weights


class TestPinballLoss:
    """The reference loss of the certificate and oracle tests below."""

    def test_zero_residual(self):
        assert pinball_loss(0.0, 0.3) == 0.0

    def test_positive_residual(self):
        assert pinball_loss(2.0, 0.1) == pytest.approx(0.2)

    def test_negative_residual(self):
        assert pinball_loss(-2.0, 0.1) == pytest.approx(1.8)

    def test_nonnegative_and_zero_only_at_zero(self):
        u = np.linspace(-5, 5, 101)
        losses = pinball_loss(u, 0.37)
        assert np.all(losses >= 0)
        assert np.all((losses == 0) == (u == 0))


class TestAffineFit:
    def test_constant_rewards_collapse_quantiles(self):
        train = RsDataset(np.linspace(-2, 2, 50).reshape(-1, 1), np.full(50, 3.0), np.arange(50))
        model = fit_quantile_pair(train, PARAMS_10_90)
        lo, up = model.quantiles(np.array([-1.5, 0.0, 2.0]))
        assert np.all(np.abs(lo - 3.0) < 1e-3)
        assert np.all(np.abs(up - 3.0) < 1e-3)

    def test_recovers_oracle_quantiles_of_mixture(self):
        target = sample_target(5000, child_rng(77, 0))
        model = fit_quantile_pair(_as_train(target), PARAMS_10_90)
        (lo,), (up,) = model.quantiles(0.0)
        assert abs(lo - oracle_quantiles(0.0, 0.1)[0]) < 0.4
        assert abs(up - oracle_quantiles(0.0, 0.9)[0]) < 0.4

    def test_heldout_calibration(self):
        # Fraction of held-out rewards below the fitted lower quantile stays
        # within 0.03 of the nominal level.
        target = sample_target(5000, child_rng(77, 0))
        model = fit_quantile_pair(_as_train(target), PARAMS_10_90)
        held = sample_target(10000, child_rng(77, 1))
        lo, up = model.quantiles(held.contexts)
        assert abs(float(np.mean(held.rewards < lo)) - 0.1) < 0.03
        assert abs(float(np.mean(held.rewards > up)) - 0.1) < 0.03

    def test_too_small_training_set(self):
        train = RsDataset(np.zeros((1, 1)), np.zeros(1), np.zeros(1, dtype=int))
        with pytest.raises(ValueError, match="insufficient training data"):
            fit_quantile_pair(train, PARAMS_10_90)

    def test_exact_optimum_and_level_condition(self):
        # With a 1-d context some optimum of the two-parameter pinball LP
        # interpolates two data points, so trying every pair finds the optimum.
        target = sample_target(40, child_rng(5, 0))
        x, y = target.contexts[:, 0], target.rewards
        model = fit_quantile_pair(_as_train(target), PARAMS_10_90)
        fitted = model.quantiles(target.contexts)
        i, j = np.triu_indices(len(y), k=1)
        slope = (y[j] - y[i]) / (x[j] - x[i])
        lines = (y[i] - slope * x[i])[:, None] + slope[:, None] * x[None, :]
        for level, fit in zip((PARAMS_10_90.eps_lo, PARAMS_10_90.eps_up), fitted):
            oracle = pinball_loss(y[None, :] - lines, level).mean(axis=1).min()
            resid = y - fit
            loss = float(pinball_loss(resid, level).mean())
            assert oracle - 1e-12 <= loss <= oracle + 1e-9
            assert np.mean(resid < -1e-7) <= level <= np.mean(resid <= 1e-7)

    def test_all_equal_contexts_give_empirical_quantile(self):
        y = sample_target(11, child_rng(10, 0)).rewards
        train = RsDataset(np.full((11, 1), 0.7), y, np.arange(11))
        params = PacParams(0.6, 0.1)
        model = fit_quantile_pair(train, params)
        ordered = np.sort(y)
        # 11 * 0.3 = 3.3 and 11 * 0.7 = 7.7: the 4th and 8th order statistics.
        (lo,), (up,) = model.quantiles(0.7)
        assert lo == pytest.approx(ordered[3], abs=1e-9)
        assert up == pytest.approx(ordered[7], abs=1e-9)

    def test_two_points_are_interpolated(self):
        train = RsDataset(np.array([[-1.0], [2.0]]), np.array([0.5, -1.0]), np.arange(2))
        model = fit_quantile_pair(train, PARAMS_10_90)
        lo, up = model.quantiles(np.array([-1.0, 2.0]))
        assert lo == pytest.approx([0.5, -1.0], abs=1e-9)
        assert up == pytest.approx([0.5, -1.0], abs=1e-9)

    def test_tied_rewards_meet_level_condition(self):
        target = sample_target(300, child_rng(11, 0))
        y = np.round(target.rewards)
        train = RsDataset(target.contexts, y, np.arange(300))
        model = fit_quantile_pair(train, PARAMS_10_90)
        levels = (PARAMS_10_90.eps_lo, PARAMS_10_90.eps_up)
        for level, fit in zip(levels, model.quantiles(target.contexts)):
            resid = y - fit
            assert np.mean(resid < -1e-7) <= level <= np.mean(resid <= 1e-7)

    def test_fits_and_orders_levels(self):
        target = sample_target(600, child_rng(6, 0))
        model = fit_quantile_pair(_as_train(target), PARAMS_10_90)
        grid = np.linspace(-4, 4, 101).reshape(-1, 1)
        lo, up = model.quantiles(grid)
        assert np.all(lo <= up)
        (lo,), (up,) = model.quantiles(0.0)
        assert lo < up

    def test_deterministic(self):
        target = sample_target(600, child_rng(7, 0))
        m1 = fit_quantile_pair(_as_train(target), PARAMS_10_90)
        m2 = fit_quantile_pair(_as_train(target), PARAMS_10_90)
        assert m1.w_lo.tobytes() == m2.w_lo.tobytes()
        assert m1.w_up.tobytes() == m2.w_up.tobytes()
        grid = np.linspace(-2, 2, 17)
        assert np.array_equal(m1.quantiles(grid)[0], m2.quantiles(grid)[0])

    def test_trivial_model_is_zero(self):
        model = trivial_quantile_model()
        lo, up = model.quantiles(np.array([[5.0]]))
        assert lo[0] == 0.0 and up[0] == 0.0


def _tall_problem(seed, n=6000, dim=1, noise="normal", ties=False, equal_contexts=False):
    rng = np.random.default_rng(seed)
    ctx = rng.normal(size=(n, dim))
    if equal_contexts:
        ctx[:] = 0.7
    eps = rng.standard_cauchy(n) if noise == "cauchy" else 3.0 * rng.normal(size=n)
    y = 2.0 * ctx[:, 0] + eps
    return ctx, np.round(y) if ties else y


def _pivots_needed(ctx, y, level, monkeypatch):
    """The fewest pivots under which the level's fit succeeds."""
    for cap in range(quantile._LP_MAX_PIVOTS + 1):
        with monkeypatch.context() as m:
            m.setattr(quantile, "_LP_MAX_PIVOTS", cap)
            try:
                quantile._fit_levels(ctx, y, (level,))
            except ValueError:
                continue
        return cap
    raise AssertionError(f"level {level} needs more than {quantile._LP_MAX_PIVOTS} pivots")


def _highs_loss(ctx, y, level):
    """Optimal total loss of the pinball LP by strong duality: HiGHS's dual
    simplex on ``max y'a - (1 - level) 1'y  s.t.  q'a = (1 - level) q'1,
    0 <= a <= 1``, with ``q`` an orthonormal basis of the design's columns."""
    n = len(y)
    u, sv, _ = np.linalg.svd(np.hstack([np.ones((n, 1)), ctx]), full_matrices=False)
    q = u[:, : int(np.sum(sv > sv[0] * n * np.finfo(float).eps))]
    result = linprog(
        -y, A_eq=q.T, b_eq=(1.0 - level) * q.sum(axis=0), bounds=(0.0, 1.0), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.status == 0, result.message
    return -result.fun - (1.0 - level) * float(np.sum(y))


def _assert_certified_like_full(ctx, y, levels):
    """The fit passes the stop rule, and its loss matches HiGHS's optimum."""
    weights = _assert_certified(ctx, y, levels)
    x1 = np.hstack([np.ones((len(y), 1)), ctx])
    scale = float(np.mean(np.abs(y)))
    for level, w in zip(levels, weights):
        loss = float(np.mean(pinball_loss(y - x1 @ w, level)))
        assert abs(loss - _highs_loss(ctx, y, level) / len(y)) <= quantile._LP_GAP_TOL * scale


class TestSharedSolve:
    """A pair's levels are fitted in one call, on one shared basis ``q`` of the design."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 2000),
        dim=st.integers(1, 2),
        equal_contexts=st.booleans(),
        ties=st.booleans(),
        cauchy=st.booleans(),
        levels=st.sampled_from([(0.01, 0.99), (0.45, 0.55), (0.1, 0.9)]),
    )
    def test_matches_per_level_oracle(self, seed, n, dim, equal_contexts, ties, cauchy, levels):
        rng = np.random.default_rng(seed)
        ctx = rng.normal(size=(n, dim))
        if equal_contexts:
            ctx[:] = ctx[0]
        y = 2.0 * ctx[:, 0] + (rng.standard_cauchy(n) if cauchy else 3.0 * rng.normal(size=n))
        if ties:
            y = np.round(y)
        weights = _assert_certified(ctx, y, levels)
        x1 = np.hstack([np.ones((n, 1)), ctx])
        scale = float(np.mean(np.abs(y)))
        # Continuous rewards and a full-rank design have one optimal vertex.
        unique = not (equal_contexts or ties) and n > dim
        for level, w in zip(levels, weights):
            w_highs, loss_highs = _highs_fit(ctx, y, level)
            loss = float(np.sum(pinball_loss(y - x1 @ w, level)))
            # Beyond 1e-12 relative, allow the rounding of the residuals, which
            # decides when the optimal loss is 0 (as many rows as weights).
            rounding = 1e-14 * float(np.sum(np.abs(y) + np.abs(x1) @ np.abs(w_highs)))
            assert abs(loss - loss_highs) <= 1e-12 * loss_highs + rounding
            if unique:
                # An ill-conditioned design (a few rows) can give weights far
                # above the rewards, known to both solvers to relative precision.
                assert np.max(np.abs(w - w_highs)) <= 1e-12 * max(scale, np.max(np.abs(w_highs)))

    def test_levels_converging_at_different_steps_match_solo_fits(self, monkeypatch):
        target = sample_target(400, child_rng(14, 0))
        ctx, y = target.contexts, target.rewards
        levels = (0.01, 0.5)  # 1 and 3 pivots
        steps = [_pivots_needed(ctx, y, level, monkeypatch) for level in levels]
        assert steps[0] != steps[1]
        pair, duals = quantile._fit_levels(ctx, y, levels)
        for level, w, a in zip(levels, pair, duals):
            solo, solo_duals = quantile._fit_levels(ctx, y, (level,))
            assert w.tobytes() == solo[0].tobytes() and a.tobytes() == solo_duals[0].tobytes()


def _reference_simplex(q, y, level, a, ls_resid, pivots=None):
    """``quantile._simplex`` with its pivot rule, start and duals, but a fresh
    basis inverse and fresh residuals ``y - q inv y_B`` at every pivot, in
    place of the residual and rank-one updates along each edge. Each level's
    pivot count is appended to ``pivots``, if given."""
    n, rank = q.shape
    k = min(int(level * n), n - 1)
    near = ls_resid - np.partition(ls_resid, k)[k]
    m = min(quantile._LP_START_ROWS * rank, n) - 1
    np.abs(near, out=near)
    basis = quantile._spanning_rows(q, np.flatnonzero(near <= np.partition(near, m)[m]))
    if basis is None:
        basis = quantile._spanning_rows(q, np.arange(n))
    resid, move, psi = near, np.empty(n), None
    tol = quantile._LP_GAP_TOL * math.sqrt(n) / (2 * rank)
    for pivot in range(quantile._LP_MAX_PIVOTS + 1):
        inv = np.linalg.inv(q[basis])
        np.subtract(y, np.matmul(q, inv @ y[basis], out=resid), out=resid)
        if psi is None:
            psi = np.where(resid > 0.0, level, level - 1.0)
        psi[basis] = 0.0
        a_b = (1.0 - level) - (q.T @ psi) @ inv
        j = int(np.argmax(np.maximum(-a_b, a_b - 1.0)))
        if -tol <= a_b[j] <= 1.0 + tol:
            if pivots is not None:
                pivots.append(pivot)
            break
        if pivot == quantile._LP_MAX_PIVOTS:
            raise ValueError(f"affine quantile fit at level {level}: no optimal basis "
                             f"within {quantile._LP_MAX_PIVOTS} pivots")
        sign, need = (1.0, -a_b[j]) if a_b[j] < 0.0 else (-1.0, a_b[j] - 1.0)
        np.matmul(q, sign * inv[:, j], out=move)
        rows = np.flatnonzero(psi * move > quantile._LP_EDGE_TOL)
        t = resid[rows]
        np.maximum(np.divide(t, move[rows], out=t), 0.0, out=t)
        size = 16
        while True:
            prefix = np.flatnonzero(t <= np.partition(t, size - 1)[size - 1]) \
                if size < t.size else np.arange(t.size)
            prefix = prefix[np.argsort(t[prefix], kind="stable")]
            stop = int(np.searchsorted(np.cumsum(np.abs(move[rows[prefix]])), need))
            if stop < prefix.size:
                break
            if prefix.size == t.size:
                raise ValueError(f"affine quantile fit at level {level}: the loss falls "
                                 "without bound along an edge")
            size *= 4
        passed = rows[prefix[:stop]]
        psi[passed] = np.where(psi[passed] > 0.0, level - 1.0, level)
        psi[basis[j]] = level - 1.0 if sign > 0.0 else level
        basis[j] = rows[prefix[stop]]
    np.copyto(a, psi > 0.0)
    a[basis] = np.clip(a_b, 0.0, 1.0)
    return basis


class TestPivotUpdates:
    """The pivots update the residuals along each edge and the basis inverse
    by rank one; the fresh-inverse reference must reach the same vertex."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 2000),
        dim=st.integers(1, 2),
        equal_contexts=st.booleans(),
        ties=st.booleans(),
        cauchy=st.booleans(),
        levels=st.sampled_from([(0.01, 0.99), (0.45, 0.55), (0.1, 0.9)]),
    )
    def test_matches_fresh_inverse_reference(self, seed, n, dim, equal_contexts, ties, cauchy,
                                             levels):
        rng = np.random.default_rng(seed)
        ctx = rng.normal(size=(n, dim))
        if equal_contexts:
            ctx[:] = ctx[0]
        y = 2.0 * ctx[:, 0] + (rng.standard_cauchy(n) if cauchy else 3.0 * rng.normal(size=n))
        if ties:
            y = np.round(y)
        _assert_certified(ctx, y, levels)
        if equal_contexts or ties or n <= dim:
            return
        # Continuous rewards and a full-rank design: the same pivots, the same bytes.
        weights, duals = quantile._fit_levels(ctx, y, levels)
        pivots = []
        with mock.patch.object(quantile, "_simplex", partial(_reference_simplex, pivots=pivots)):
            reference, reference_duals = quantile._fit_levels(ctx, y, levels)
        assert weights.tobytes() == reference.tobytes()
        assert duals.tobytes() == reference_duals.tobytes()
        for level, count in zip(levels, pivots):
            with mock.patch.object(quantile, "_LP_MAX_PIVOTS", count):
                quantile._fit_levels(ctx, y, (level,))
            if count:
                with mock.patch.object(quantile, "_LP_MAX_PIVOTS", count - 1), \
                        pytest.raises(ValueError, match="no optimal basis"):
                    quantile._fit_levels(ctx, y, (level,))

    def test_fresh_inverse_at_every_pivot_gives_the_same_fit(self):
        # A pivot element below _LP_PIVOT_TOL takes a fresh inverse and
        # residuals; with an infinite tolerance every pivot does.
        ctx, y = _tall_problem(5, n=3000, dim=2)
        weights, duals = quantile._fit_levels(ctx, y, (0.1, 0.9))
        with mock.patch.object(quantile, "_LP_PIVOT_TOL", math.inf):
            fresh, fresh_duals = quantile._fit_levels(ctx, y, (0.1, 0.9))
        assert weights.tobytes() == fresh.tobytes() and duals.tobytes() == fresh_duals.tobytes()


class TestSimplexFit:
    def test_pivot_cap_raises_naming_level(self, monkeypatch):
        target = sample_target(200, child_rng(12, 0))
        monkeypatch.setattr(quantile, "_LP_MAX_PIVOTS", 0)
        with pytest.raises(ValueError, match="at level 0.1: no optimal basis within 0 pivots"):
            fit_quantile_pair(_as_train(target), PARAMS_10_90)

    def test_heavily_tied_design_takes_few_pivots(self, monkeypatch):
        # Binary rewards put thousands of rows on the optimal fit. Without the
        # reward offsets that break those ties, the pivots stall on degenerate
        # vertices (48 to 60 pivots a level here); with them a level takes 10 to 24.
        rng = np.random.default_rng(3)
        ctx = rng.normal(size=(20_000, 2))
        y = (rng.random(20_000) < 0.3).astype(float)
        monkeypatch.setattr(quantile, "_LP_MAX_PIVOTS", 40)
        weights = _assert_certified(ctx, y, (0.1, 0.5, 0.9))
        x1 = np.hstack([np.ones((len(y), 1)), ctx])
        for level, w in zip((0.1, 0.5, 0.9), weights):
            resid = y - x1 @ w
            assert np.mean(resid < -1e-9) <= level <= np.mean(resid <= 1e-9)

    def test_start_rows_that_do_not_span_fall_back_to_all_rows(self):
        # At level 0.9 the rows nearest the shifted least-squares fit all
        # have context 0, so the first basis is sought among all rows. The
        # fit is the level's quantile at each of the two contexts.
        rng = np.random.default_rng(4)
        ctx = np.zeros((200, 1))
        ctx[:3] = 1.0
        y = rng.normal(size=200)
        y[:3] = [100.0, 101.0, 102.0]
        weights = _assert_certified(ctx, y, (0.1, 0.9))
        top = np.quantile(y[3:], 0.9, method="inverted_cdf")
        assert weights[1] == pytest.approx([top, 102.0 - top], abs=1e-9)

    def test_tall_pair_fit_is_deterministic(self):
        train = _as_train(sample_target(45_000, child_rng(17, 0)))
        m1, m2 = (fit_quantile_pair(train, PARAMS_10_90) for _ in range(2))
        assert m1.w_lo.tobytes() == m2.w_lo.tobytes() and m1.w_up.tobytes() == m2.w_up.tobytes()

    def test_traced_peak_stays_within_twelve_vectors(self):
        n = 20_000
        train = _as_train(sample_target(n, child_rng(15, 0)))
        fit_quantile_pair(train, PARAMS_10_90)
        tracemalloc.start()
        try:
            fit_quantile_pair(train, PARAMS_10_90)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * n


class TestReducedFit:
    """Tall problems: the first basis is sought among the few rows nearest the
    shifted least-squares fit, and the fit is certified on the full problem."""

    @pytest.mark.parametrize("levels", [(0.01, 0.99), (0.1, 0.9), (0.45, 0.55)])
    def test_certified_and_matches_full_fit(self, levels):
        _assert_certified_like_full(*_tall_problem(1), levels)

    @pytest.mark.parametrize("case", [
        dict(noise="cauchy"),
        dict(ties=True),
        dict(dim=2),  # p = 3 design columns
        dict(equal_contexts=True),  # a rank-deficient design
        dict(equal_contexts=True, ties=True),
    ])
    def test_stress_cases(self, case):
        _assert_certified_like_full(*_tall_problem(2, **case), (0.1, 0.9))


class TestCrossingFix:
    def test_no_crossing_on_probe_grid(self):
        target = sample_target(300, child_rng(8, 0))
        model = fit_quantile_pair(_as_train(target), PARAMS_10_90)
        grid = np.linspace(-30, 30, 1000).reshape(-1, 1)
        lo, up = model.quantiles(grid)
        assert np.all(lo <= up)

    def test_midpoint_replacement(self):
        # Force crossing affine weights; both sides must collapse to the mean.
        model = QuantilePairModel(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        lo, up = model.quantiles(np.array([[0.0]]))
        assert lo[0] == up[0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 2))
    def test_random_affine_pairs_are_ordered(self, data, dim):
        # Independent weight pairs cross on about half of the contexts.
        weights = st.lists(st.floats(-1e3, 1e3), min_size=dim + 1, max_size=dim + 1)
        w_lo, w_up = np.array(data.draw(weights)), np.array(data.draw(weights))
        ctx = np.array(data.draw(st.lists(
            st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim), min_size=1, max_size=20,
        )))
        lo, up = QuantilePairModel(w_lo, w_up).quantiles(ctx)
        assert np.all(lo <= up)
        ref_lo = w_lo[0] + (ctx * w_lo[1:]).sum(axis=1)
        ref_up = w_up[0] + (ctx * w_up[1:]).sum(axis=1)
        kept = ref_lo <= ref_up
        assert np.array_equal(lo[kept], ref_lo[kept])
        assert np.array_equal(up[kept], ref_up[kept])

