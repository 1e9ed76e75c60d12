import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacope import quantile
from pacope.core import PacParams, child_rng
from pacope.quantile import (
    QuantilePairModel,
    fit_quantile_pair,
    pinball_loss,
    trivial_quantile_model,
)
from pacope.rejection import RsDataset
from pacope.synthenv import oracle_quantile, sample_target

PARAMS_10_90 = PacParams(0.2, 0.1, eps_lo=0.1, eps_up=0.9)


def _as_train(target):
    return RsDataset(target.contexts, target.rewards, np.arange(len(target)))


# Reference oracle: the same Frisch-Newton fit for one level at a time, with
# fresh arrays for every expression. It reads the tolerances from the module
# at call time, so a monkeypatched constant reaches it too, and it returns
# its Newton-step and centring-step counts.


def _max_step(v, dv):
    ratio = np.divide(v, -dv, out=np.full(v.shape, np.inf), where=dv < 0.0)
    return min(1.0, quantile._LP_STEP_FRACTION * float(ratio.min()))


def _solve_small(m, rhs):
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(m, rhs, rcond=None)[0]


def _newton_direction(q, m, d, rho, a, s, z, w, mu, corr_z, corr_w):
    xi = mu * (1.0 / a - 1.0 / s)
    r = z - w
    dg = _solve_small(m, rho + q.T @ (d * (r + corr_z - corr_w - xi)))
    da = d * (q @ dg + xi - r - corr_z + corr_w)
    dz = mu / a - z - z / a * da - corr_z
    dw = mu / s - w + w / s * da - corr_w
    fp = min(_max_step(a, da), _max_step(s, -da))
    fd = min(_max_step(z, dz), _max_step(w, dw))
    return da, dg, dz, dw, fp, fd


def _oracle_fit(x1, y, level):
    """``(weights, Newton steps, centring steps)`` of one level's fit."""
    n = y.shape[0]
    scale = float(np.mean(np.abs(y)))
    if scale == 0.0:
        return np.zeros(x1.shape[1]), 0, 0
    u, sv, vt = np.linalg.svd(x1, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(x1.shape) * np.finfo(float).eps))
    q, sv, vt = u[:, :rank], sv[:rank], vt[:rank]
    yn = y / scale
    b = (1.0 - level) * q.sum(axis=0)
    offset = (1.0 - level) * float(np.mean(yn))
    a = np.full(n, 0.5)
    s = 1.0 - a
    g = -(q.T @ yn)
    r = -yn - q @ g
    z = np.maximum(r, 0.0) + 1e-3
    w = z - r
    centrings = 0
    for step in range(quantile._LP_MAX_STEPS + 1):
        rho = b - q.T @ a
        gap = float(np.mean(pinball_loss(yn + q @ g, level))) - (float(yn @ a) / n - offset)
        residual = float(np.max(np.abs(rho)))
        if gap <= quantile._LP_GAP_TOL and residual <= quantile._LP_GAP_TOL * math.sqrt(n):
            break
        if step == quantile._LP_MAX_STEPS:
            raise ValueError(f"affine quantile fit at level {level}: relative duality gap {gap:.3g} "
                             f"did not close within {quantile._LP_MAX_STEPS} Newton steps")
        d = 1.0 / (z / a + w / s)
        m = (q * d[:, None]).T @ q
        state = (q, m, d, rho, a, s, z, w)
        da, dg, dz, dw, fp, fd = _newton_direction(*state, 0.0, 0.0, 0.0)
        if min(fp, fd) < 1.0:
            mu = float(z @ a + w @ s)
            mu_aff = float((z + fd * dz) @ (a + fp * da) + (w + fd * dw) @ (s - fp * da))
            target = mu * (mu_aff / mu) ** 3 / (2.0 * n)
            da, dg, dz, dw, fp, fd = _newton_direction(*state, target, da * dz, -da * dw)
            if min(fp, fd) < quantile._LP_MIN_STEP:
                centrings += 1
                da, dg, dz, dw, fp, fd = _newton_direction(*state, 0.25 * mu / n, 0.0, 0.0)
        a = a + fp * da
        s = s - fp * da
        g = g + fd * dg
        z = z + fd * dz
        w = w + fd * dw
    return vt.T @ (-g / sv) * scale, step, centrings


def _assert_matches_oracle(ctx, y, levels):
    """The shared solve agrees with one oracle fit per level; returns their counts."""
    x1 = np.hstack([np.ones((len(y), 1)), ctx])
    fits = [_oracle_fit(x1, y, level) for level in levels]
    weights, _ = quantile._fit_levels(ctx, y, levels)
    scale = float(np.mean(np.abs(y)))
    for level, w, (w_oracle, _, _) in zip(levels, weights, fits):
        assert np.max(np.abs(w - w_oracle)) <= 1e-9 * scale
        loss, loss_oracle = (float(np.mean(pinball_loss(y - x1 @ v, level))) for v in (w, w_oracle))
        assert abs(loss - loss_oracle) <= quantile._LP_GAP_TOL * scale
    return [fit[1:] for fit in fits]


class TestPinballLoss:
    def test_zero_residual(self):
        assert pinball_loss(0.0, 0.3) == 0.0

    def test_positive_residual(self):
        assert pinball_loss(2.0, 0.1) == pytest.approx(0.2)

    def test_negative_residual(self):
        assert pinball_loss(-2.0, 0.1) == pytest.approx(1.8)

    def test_level_domain(self):
        with pytest.raises(ValueError):
            pinball_loss(1.0, 0.0)
        with pytest.raises(ValueError):
            pinball_loss(1.0, 1.0)

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
        assert abs(lo - oracle_quantile(0.0, 0.1)) < 0.4
        assert abs(up - oracle_quantile(0.0, 0.9)) < 0.4

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
        for level, fit, losses in zip(model.levels, fitted, model.train_losses):
            oracle = pinball_loss(y[None, :] - lines, level).mean(axis=1).min()
            resid = y - fit
            loss = float(pinball_loss(resid, level).mean())
            assert losses.shape == (1,) and losses[0] == pytest.approx(loss, abs=1e-15)
            assert oracle - 1e-12 <= loss <= oracle + 1e-9
            assert np.mean(resid < -1e-7) <= level <= np.mean(resid <= 1e-7)

    def test_all_equal_contexts_give_empirical_quantile(self):
        y = sample_target(11, child_rng(10, 0)).rewards
        train = RsDataset(np.full((11, 1), 0.7), y, np.arange(11))
        params = PacParams(0.6, 0.1, eps_lo=0.3, eps_up=0.7)
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
        for level, fit in zip(model.levels, model.quantiles(target.contexts)):
            resid = y - fit
            assert np.mean(resid < -1e-7) <= level <= np.mean(resid <= 1e-7)

    def test_step_cap_raises_with_gap(self, monkeypatch):
        monkeypatch.setattr(quantile, "_LP_MAX_STEPS", 1)
        target = sample_target(200, child_rng(12, 0))
        with pytest.raises(ValueError, match="duality gap .* did not close within 1 Newton steps"):
            fit_quantile_pair(_as_train(target), PARAMS_10_90)


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
        model = trivial_quantile_model((0.1, 0.9))
        lo, up = model.quantiles(np.array([[5.0]]))
        assert lo[0] == 0.0 and up[0] == 0.0


class TestSharedSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 2000),
        dim=st.integers(1, 2),
        equal_contexts=st.booleans(),
        ties=st.booleans(),
        levels=st.sampled_from([(0.01, 0.99), (0.45, 0.55)]),
    )
    def test_matches_per_level_oracle(self, seed, n, dim, equal_contexts, ties, levels):
        rng = np.random.default_rng(seed)
        ctx = rng.normal(size=(n, dim))
        if equal_contexts:
            ctx[:] = ctx[0]
        y = 2.0 * ctx[:, 0] + 3.0 * rng.normal(size=n)
        _assert_matches_oracle(ctx, np.round(y) if ties else y, levels)

    def test_centring_fallback_matches_oracle(self, monkeypatch):
        # Raising the minimum corrected step sends most steps through the
        # pure centring direction, including its mu / (2n) target.
        monkeypatch.setattr(quantile, "_LP_MIN_STEP", 0.9)
        target = sample_target(300, child_rng(13, 0))
        counts = _assert_matches_oracle(target.contexts, target.rewards, (0.1, 0.9))
        assert all(centrings > 0 for _, centrings in counts)

    @pytest.mark.parametrize("singular", ["batch", "every"])
    def test_singular_solve_falls_back_level_by_level(self, monkeypatch, singular):
        # A batched solve that raises is redone one level at a time: a level
        # whose own solve succeeds keeps it, one whose solve raises takes
        # lstsq, exactly as the oracle does under the same solve.
        solve = np.linalg.solve

        def flaky_solve(m, rhs):
            if m.ndim > 2 or singular == "every":
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(m, rhs)

        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        target = sample_target(300, child_rng(16, 0))
        x1 = np.hstack([np.ones((300, 1)), target.contexts])
        oracle = np.array([_oracle_fit(x1, target.rewards, level)[0] for level in (0.1, 0.9)])
        weights, _ = quantile._fit_levels(target.contexts, target.rewards, (0.1, 0.9))
        assert weights.tobytes() == oracle.tobytes()

    def test_levels_converging_at_different_steps_match_solo_fits(self):
        target = sample_target(400, child_rng(14, 0))
        levels = (0.01, 0.55)
        counts = _assert_matches_oracle(target.contexts, target.rewards, levels)
        assert counts[0][0] != counts[1][0]
        pair, _ = quantile._fit_levels(target.contexts, target.rewards, levels)
        scale = float(np.mean(np.abs(target.rewards)))
        for level, w in zip(levels, pair):
            solo = quantile._fit_levels(target.contexts, target.rewards, (level,))[0][0]
            assert np.max(np.abs(w - solo)) <= 1e-12 * scale

    def test_traced_peak_stays_within_thirty_vectors(self):
        n = 20_000
        train = _as_train(sample_target(n, child_rng(15, 0)))
        fit_quantile_pair(train, PARAMS_10_90)
        tracemalloc.start()
        try:
            fit_quantile_pair(train, PARAMS_10_90)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 8 * n


def _full_certificate(ctx, y, w, a, level):
    """Duality gap and equality residual of ``(w, a)`` on the full problem, in
    the units of the stop rule; ``a`` must lie in the unit box."""
    assert np.all((0.0 <= a) & (a <= 1.0))
    n = len(y)
    x1 = np.hstack([np.ones((n, 1)), ctx])
    loss = float(np.sum(pinball_loss(y - x1 @ w, level)))
    gap = (loss - float(y @ a) + (1.0 - level) * float(np.sum(y))) / (n * float(np.mean(np.abs(y))))
    u, sv, _ = np.linalg.svd(x1, full_matrices=False)
    q = u[:, : int(np.sum(sv > sv[0] * n * np.finfo(float).eps))]
    residual = float(np.max(np.abs((1.0 - level) * q.sum(axis=0) - q.T @ a)))
    return gap, residual / math.sqrt(n)


def _tall_problem(seed, n=6000, dim=1, noise="normal", ties=False, equal_contexts=False):
    rng = np.random.default_rng(seed)
    ctx = rng.normal(size=(n, dim))
    if equal_contexts:
        ctx[:] = 0.7
    eps = rng.standard_cauchy(n) if noise == "cauchy" else 3.0 * rng.normal(size=n)
    y = 2.0 * ctx[:, 0] + eps
    return ctx, np.round(y) if ties else y


def _assert_certified_like_full(ctx, y, levels):
    """The reduced fit passes the full stop rule and matches the full fit's loss."""
    weights, duals = quantile._fit_reduced(ctx, y, levels)
    full, _ = quantile._fit_levels(ctx, y, levels)
    x1 = np.hstack([np.ones((len(y), 1)), ctx])
    scale = float(np.mean(np.abs(y)))
    for level, w, a, w_full in zip(levels, weights, duals, full):
        gap, residual = _full_certificate(ctx, y, w, a, level)
        assert gap <= quantile._LP_GAP_TOL and residual <= quantile._LP_GAP_TOL
        loss, loss_full = (float(np.mean(pinball_loss(y - x1 @ v, level))) for v in (w, w_full))
        assert abs(loss - loss_full) <= quantile._LP_GAP_TOL * scale


class TestReducedFit:
    """Tall pairs go through the Portnoy-Koenker reduced problems."""

    @pytest.mark.parametrize("levels", [(0.01, 0.99), (0.1, 0.9), (0.45, 0.55)])
    def test_certified_and_matches_full_fit(self, levels):
        ctx, y = _tall_problem(1)
        assert len(y) >= quantile._LP_PREPROCESS_ROWS
        _assert_certified_like_full(ctx, y, levels)

    @pytest.mark.parametrize("case", [
        dict(noise="cauchy"),
        dict(ties=True),
        dict(dim=2),  # p = 3 design columns
        dict(equal_contexts=True),  # a rank-deficient design
        dict(equal_contexts=True, ties=True),
    ])
    def test_stress_cases(self, case):
        ctx, y = _tall_problem(2, **case)
        _assert_certified_like_full(ctx, y, (0.1, 0.9))

    def test_narrow_bands_free_wrong_signs_and_double_m(self, monkeypatch):
        # Narrow bands fix rows on the wrong side of the fit: some are freed
        # and solved again on the same subsample, and others send the level
        # back to a subsample twice as large. Every answer is still certified.
        target = sample_target(6000, child_rng(1, 0))
        ctx, y = target.contexts, target.rewards
        solve, calls = quantile._fit_levels, []

        def recorded(c, yy, levels, rhs=None, units=None):
            calls.append((len(yy), levels, rhs is not None))
            return solve(c, yy, levels, rhs, units)

        monkeypatch.setattr(quantile, "_fit_levels", recorded)
        freed = doubled = False
        for band in (0.1, 0.05, 0.03):
            monkeypatch.setattr(quantile, "_LP_PREPROCESS_BAND", band)
            calls.clear()
            weights, duals = quantile._fit_reduced(ctx, y, (0.1, 0.9))
            for level, w, a in zip((0.1, 0.9), weights, duals):
                gap, residual = _full_certificate(ctx, y, w, a, level)
                assert gap <= quantile._LP_GAP_TOL and residual <= quantile._LP_GAP_TOL
            subsamples = [rows for rows, _, reduced in calls if not reduced]
            assert all(b == 2 * a for a, b in zip(subsamples, subsamples[1:]))
            doubled |= len(subsamples) > 1
            freed |= any(c[2] and d[2] and c[1] == d[1] and d[0] > c[0] for c, d in zip(calls, calls[1:]))
        assert freed and doubled

    def test_falls_back_to_full_solve(self, monkeypatch):
        # A band of no rows never certifies, so m doubles until it reaches n.
        monkeypatch.setattr(quantile, "_LP_PREPROCESS_BAND", 1e-6)
        ctx, y = _tall_problem(4)
        weights, _ = quantile._fit_reduced(ctx, y, (0.1, 0.9))
        assert weights.tobytes() == quantile._fit_levels(ctx, y, (0.1, 0.9))[0].tobytes()

    def test_pair_fit_is_deterministic_above_cutoff(self):
        n = quantile._LP_PREPROCESS_ROWS
        train = _as_train(sample_target(n, child_rng(17, 0)))
        m1, m2 = (fit_quantile_pair(train, PARAMS_10_90) for _ in range(2))
        assert m1.w_lo.tobytes() == m2.w_lo.tobytes() and m1.w_up.tobytes() == m2.w_up.tobytes()
        reduced, _ = quantile._fit_reduced(train.contexts, train.rewards, (0.1, 0.9))
        assert np.concatenate([m1.w_lo, m1.w_up]).tobytes() == reduced.tobytes()

    def test_below_cutoff_is_the_full_solve(self):
        n = quantile._LP_PREPROCESS_ROWS - 1
        train = _as_train(sample_target(n, child_rng(18, 0)))
        model = fit_quantile_pair(train, PARAMS_10_90)
        full, _ = quantile._fit_levels(train.contexts, train.rewards, (0.1, 0.9))
        assert np.concatenate([model.w_lo, model.w_up]).tobytes() == full.tobytes()


class TestCrossingFix:
    def test_no_crossing_on_probe_grid(self):
        target = sample_target(300, child_rng(8, 0))
        model = fit_quantile_pair(_as_train(target), PARAMS_10_90)
        grid = np.linspace(-30, 30, 1000).reshape(-1, 1)
        lo, up = model.quantiles(grid)
        assert np.all(lo <= up)

    def test_midpoint_replacement(self):
        # Force crossing affine weights; both sides must collapse to the mean.
        model = QuantilePairModel(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), (0.1, 0.9))
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
        lo, up = QuantilePairModel(w_lo, w_up, (0.1, 0.9)).quantiles(ctx)
        assert np.all(lo <= up)
        x1 = np.hstack([np.ones((len(ctx), 1)), ctx])
        kept = x1 @ w_lo <= x1 @ w_up
        assert np.array_equal(lo[kept], (x1 @ w_lo)[kept])
        assert np.array_equal(up[kept], (x1 @ w_up)[kept])

