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

