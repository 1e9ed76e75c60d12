"""Comparison methods: weighted conformal prediction with estimated
density-ratio weights (COPP), and rejection sampling with a plain empirical
quantile threshold (COPP-RS).

COPP estimates the joint density ratio of ``(s, r)`` between target and
behavior by Monte Carlo through a fitted conditional reward model:
``w_hat(s, r) = sum_i P_hat(r | s, a_i^e) / sum_i P_hat(r | s, a_i)`` with
``a_i ~ pi_hat_b(.|s)`` and ``a_i^e ~ pi_e(.|s)``. Because the weight depends
on the candidate reward, COPP must sweep a grid of reward values to emit an
interval; the inclusion rule for a candidate is that its non-conformity score
lies below the ``1 - eps`` quantile of the weighted empirical distribution of
calibration scores plus an infinity atom.

COPP-RS shares the rejection-sampling front end of the PAC pipeline but uses
the plain ``1 - eps`` empirical quantile as its threshold, so it is marginally
valid only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibrate import nonconformity, split_cp_threshold
from .core import (
    GaussianLinearPolicy,
    LoggedDataset,
    PredictionInterval,
    StochasticPolicy,
    _as_context_matrix,
)
from ._gd import fit_gaussian_affine
from .quantile import QuantilePairModel

__all__ = [
    "RewardModelGaussian",
    "CoppConfig",
    "CoppInterval",
    "fit_reward_model",
    "copp_weight",
    "copp_predict",
    "copp_rs_predict",
]

_SIGMA_FLOOR = 1e-3
_SNAP = 1e-9


@dataclass(frozen=True)
class RewardModelGaussian:
    """Conditional Gaussian reward model ``R | s, a ~ N(mu(s, a), sigma^2)``.

    ``coef`` is ``(intercept, context coefficients..., action coefficient)``;
    ``sigma`` is a constant standard deviation. Deliberately misspecified for
    the mixture environment: that misspecification is exactly what breaks
    COPP's coverage there.
    """

    coef: np.ndarray
    sigma: float
    trained: bool = True

    def __post_init__(self) -> None:
        coef = np.asarray(self.coef, dtype=float).reshape(-1)
        if coef.size < 2:
            raise ValueError("coef must hold an intercept, context terms, and an action term")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "coef", coef)

    def mean(self, contexts, actions) -> np.ndarray:
        ctx = _as_context_matrix(contexts)
        a = np.asarray(actions, dtype=float).reshape(-1)
        return self.coef[0] + ctx @ self.coef[1:-1] + self.coef[-1] * a

    def density(self, rewards, contexts, actions) -> np.ndarray:
        r = np.asarray(rewards, dtype=float)
        z = (r - self.mean(contexts, actions)) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))


def fit_reward_model(
    train: LoggedDataset, learning_rate: float = 0.2, epochs: int = 600
) -> RewardModelGaussian:
    """Fit the affine-mean constant-sigma Gaussian model by NLL descent.

    The fitted sigma is floored at 1e-3 so degenerate (noiseless) data cannot
    produce a zero-width density. The zero-initialized fit is deterministic.
    """
    if len(train) < 2:
        raise ValueError("insufficient training data: need at least 2 samples")
    x1 = np.hstack([np.ones((len(train), 1)), train.contexts, train.actions.reshape(-1, 1)])
    w, sigma = fit_gaussian_affine(x1, train.rewards, learning_rate, epochs)
    return RewardModelGaussian(w, max(sigma, _SIGMA_FLOOR))


@dataclass(frozen=True)
class CoppConfig:
    """Monte Carlo and reward-grid resolution for the weighted-CP baseline."""

    mc_samples: int = 100
    grid_size: int = 400
    grid_margin: float = 0.25

    def __post_init__(self) -> None:
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if self.grid_margin < 0:
            raise ValueError("grid_margin must be nonnegative")


def _paired_streams(rng: np.random.Generator) -> tuple[np.random.Generator, np.random.Generator]:
    # Two generators over the same derived stream: common random numbers for
    # the behavior and target action sets, so identical policies yield
    # identical draws and a weight of exactly one.
    seed = int(rng.integers(0, 2**63))
    make = lambda: np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return make(), make()


def copp_weight(
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
    s,
    r: float,
    h: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of the joint ``(s, r)`` density ratio.

    A zero denominator (all behavior-action densities underflow) gives weight
    zero; callers count those occurrences in their diagnostics.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    ctx = np.repeat(_as_context_matrix(s), h, axis=0)
    rng_b, rng_e = _paired_streams(rng)
    a_b = pbhat.sample(ctx, rng_b)
    a_e = pe.sample(ctx, rng_e)
    r_rep = np.full(h, float(r))
    num = float(np.sum(rm.density(r_rep, ctx, a_e)))
    den = float(np.sum(rm.density(r_rep, ctx, a_b)))
    if den <= 0.0:
        return 0.0
    return num / den


def _copp_weights_batch(
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
    contexts: np.ndarray,
    rewards: np.ndarray,
    h: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Vectorized candidate weights at many ``(s, r)`` pairs.

    Fast path for Gaussian policies: one ``(n, h)`` block of standard normals
    per policy, location-scaled per row, so each pair gets its own ``h``
    draws. Other policies fall back to the scalar routine. Returns the
    weights and the number of zero denominators encountered.
    """
    ctx = _as_context_matrix(contexts)
    r = np.asarray(rewards, dtype=float).reshape(-1)
    n = ctx.shape[0]
    if n == 0:
        return np.empty(0), 0
    if isinstance(pbhat, GaussianLinearPolicy) and isinstance(pe, GaussianLinearPolicy):
        rng_b, rng_e = _paired_streams(rng)
        z_b = rng_b.standard_normal((n, h))
        z_e = rng_e.standard_normal((n, h))
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
    weights = np.empty(n)
    zeros = 0
    for i in range(n):
        weights[i] = copp_weight(rm, pbhat, pe, ctx[i], float(r[i]), h, rng)
        if weights[i] == 0.0:
            zeros += 1
    return weights, zeros


def _weighted_quantile_thresholds(
    cal_scores: np.ndarray,
    cal_weights: np.ndarray,
    cand_weights: np.ndarray,
    level: float,
) -> np.ndarray:
    """Per-candidate ``level``-quantile of the weighted score distribution.

    The distribution puts mass ``w_i / (W + c)`` on each calibration score and
    ``c / (W + c)`` on infinity, where ``c`` is the candidate's own weight.
    Returns one threshold per candidate (``inf`` when the quantile lands on
    the atom). A relative 1e-9 slack keeps decimal levels stored as floats
    from selecting the next order statistic.
    """
    order = np.argsort(cal_scores, kind="stable")
    sorted_scores = cal_scores[order]
    cum = np.cumsum(cal_weights[order])
    total = cum[-1] if cum.size else 0.0
    targets = level * (total + cand_weights)
    targets = targets - _SNAP * np.maximum(1.0, np.abs(targets))
    idx = np.searchsorted(cum, targets, side="left")
    thresholds = np.full(cand_weights.shape[0], math.inf)
    hit = idx < sorted_scores.shape[0]
    thresholds[hit] = sorted_scores[idx[hit]]
    return thresholds


@dataclass(frozen=True)
class CoppInterval:
    """Hull of grid candidates accepted by the weighted-CP rule, plus flags.

    ``interval`` is ``None`` when no grid point was accepted (the empty
    sentinel). ``non_contiguous`` reports that the accepted set had gaps, in
    which case the hull is a conservative closure.
    """

    interval: PredictionInterval | None
    empty: bool
    non_contiguous: bool
    zero_denominator_count: int

    def contains(self, r: float) -> bool:
        return self.interval is not None and self.interval.contains(r)

    def length(self) -> float:
        return 0.0 if self.interval is None else self.interval.length()


def _copp_hull(
    cal_scores: np.ndarray,
    cal_weights: np.ndarray,
    model: QuantilePairModel,
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
    s,
    epsilon: float,
    cfg: CoppConfig,
    rng: np.random.Generator,
    r_min: float,
    r_max: float,
) -> CoppInterval:
    """Grid sweep and hull for one context, given precomputed calibration weights."""
    span = max(r_max - r_min, 1e-12)
    grid = np.linspace(
        r_min - cfg.grid_margin * span, r_max + cfg.grid_margin * span, cfg.grid_size
    )
    ctx = np.repeat(_as_context_matrix(s), cfg.grid_size, axis=0)
    cand_weights, zeros_grid = _copp_weights_batch(
        rm, pbhat, pe, ctx, grid, cfg.mc_samples, rng
    )
    thresholds = _weighted_quantile_thresholds(
        cal_scores, cal_weights, cand_weights, 1.0 - epsilon
    )
    cand_scores = np.asarray(nonconformity(model, ctx, grid))
    included = cand_scores <= thresholds
    if not np.any(included):
        return CoppInterval(None, True, False, zeros_grid)
    where = np.flatnonzero(included)
    non_contiguous = bool(where[-1] - where[0] + 1 != where.size)
    hull = PredictionInterval(float(grid[where[0]]), float(grid[where[-1]]))
    return CoppInterval(hull, False, non_contiguous, zeros_grid)


def copp_predict(
    cal: LoggedDataset,
    model: QuantilePairModel,
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
    s,
    epsilon: float,
    cfg: CoppConfig,
    rng: np.random.Generator,
) -> CoppInterval:
    """Weighted-CP interval at context ``s`` via a reward-candidate grid.

    The grid spans the calibration rewards' empirical range extended by the
    configured margin. Every weight gets its own block of ``mc_samples``
    Monte Carlo action draws: one block per calibration point, and a fresh
    block per grid point, so the grid weights are independent estimates.
    """
    if len(cal) == 0:
        return CoppInterval(PredictionInterval.whole_line(), False, False, 0)
    cal_scores = np.asarray(nonconformity(model, cal.contexts, cal.rewards))
    cal_weights, zeros_cal = _copp_weights_batch(
        rm, pbhat, pe, cal.contexts, cal.rewards, cfg.mc_samples, rng
    )
    result = _copp_hull(
        cal_scores, cal_weights, model, rm, pbhat, pe, s, epsilon, cfg, rng,
        float(np.min(cal.rewards)), float(np.max(cal.rewards)),
    )
    return CoppInterval(
        result.interval,
        result.empty,
        result.non_contiguous,
        result.zero_denominator_count + zeros_cal,
    )


def copp_rs_predict(scores, model: QuantilePairModel, s, epsilon: float) -> PredictionInterval:
    """Interval from the plain ``1 - eps`` empirical-quantile threshold."""
    threshold = split_cp_threshold(scores, 1.0 - epsilon)
    lo, up = model.quantiles(s)
    if math.isinf(threshold):
        return PredictionInterval.whole_line()
    return PredictionInterval(float(lo[0]) - threshold, float(up[0]) + threshold)
