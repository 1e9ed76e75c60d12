"""Comparison methods: weighted conformal prediction with exact
density-ratio weights (COPP), and rejection sampling with a plain empirical
quantile threshold (COPP-RS).

COPP weights ``(s, r)`` by the ratio of the target and behavior reward
marginals of a fitted conditional reward model,
``w(s, r) = integral pi_e(a|s) P_hat(r|s,a) da / integral pi_hat_b(a|s) P_hat(r|s,a) da``.
The reward model is Gaussian with an affine mean and both policies are
Gaussian-linear, so each marginal is a Gaussian density in closed form and
the weights are exact; they travel as log weights. Because the weight
depends on the candidate reward, COPP must sweep a grid of reward values to
emit an interval; the inclusion rule for a candidate is that its
non-conformity score lies below the ``1 - eps`` quantile of the weighted
empirical distribution of calibration scores plus an infinity atom.

The public COPP API runs in three steps. :func:`copp_calibrate` scores and
weights the calibration half once and returns a :class:`CoppCalibration`
holding the sorted scores and their cumulative weights.
:func:`copp_log_weights` gives the log weights at any ``(s, r)`` pairs and
:func:`copp_thresholds` turns candidate log weights into weighted-quantile
thresholds. :func:`copp_hull_batch` sweeps the reward grid at a batch of
test contexts and returns the hull of the accepted candidates per context.
The grid's one setting is its size, the ``grid_size`` argument of
:func:`copp_calibrate`; it spans the calibration rewards' range widened by a
quarter of that range on each side.

COPP-RS needs no code of its own: it shares the rejection-sampling front end
and the quantile pair of the PAC pipeline but uses the plain ``1 - eps``
empirical quantile (``calibrate.split_cp_threshold``) as its threshold, so it
is marginally valid only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibrate import nonconformity
from .core import (
    GaussianLinearPolicy,
    LoggedDataset,
    StochasticPolicy,
    _as_context_matrix,
)
from ._gd import fit_gaussian_affine
from .quantile import QuantilePairModel

__all__ = [
    "RewardModelGaussian",
    "CoppCalibration",
    "CoppHulls",
    "fit_reward_model",
    "copp_log_weights",
    "copp_calibrate",
    "copp_thresholds",
    "copp_hull_batch",
]

_SIGMA_FLOOR = 1e-3
# The reward grid extends the calibration rewards' range by this share of its
# span on each side.
_GRID_MARGIN = 0.25
_SNAP = 1e-9
# Largest x with exp(x) finite.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


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


def fit_reward_model(train: LoggedDataset) -> RewardModelGaussian:
    """Exact MLE of the affine-mean constant-sigma Gaussian reward model.

    The mean coefficients are the least-squares fit on ``(1, s, a)``
    (minimum-norm for a rank-deficient design) and sigma is the root mean
    squared residual, floored at 1e-3 so degenerate (noiseless) data cannot
    produce a zero-width density.
    """
    if len(train) < 2:
        raise ValueError("insufficient training data: need at least 2 samples")
    x1 = np.hstack([np.ones((len(train), 1)), train.contexts, train.actions.reshape(-1, 1)])
    w, variance = fit_gaussian_affine(x1, train.rewards)
    return RewardModelGaussian(w, max(math.sqrt(variance), _SIGMA_FLOOR))


def copp_log_weights(
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
    contexts,
    rewards,
) -> np.ndarray:
    """Exact log density ratio ``log w(s, r)`` at many ``(s, r)`` pairs.

    Under a Gaussian-linear policy ``N(mu(s), v)`` the reward marginal
    ``integral pi(a|s) p(r|s,a) da`` of the model is
    ``N(r; c0 + c_s.s + c_a mu(s), sigma^2 + c_a^2 v)``, and ``log w`` is the
    target marginal's log density minus the behavior marginal's. Row ``i`` of
    ``contexts`` pairs with ``rewards[i]``; ``rewards`` may carry trailing
    axes (or a leading axis of one) that broadcast, such as a reward grid
    shared by every context.
    """
    if not isinstance(pbhat, GaussianLinearPolicy) or not isinstance(pe, GaussianLinearPolicy):
        raise ValueError(
            "exact COPP weights are available for Gaussian policies only; "
            "pass GaussianLinearPolicy behavior and target policies"
        )
    ctx = _as_context_matrix(contexts)
    r = np.asarray(rewards, dtype=float)
    lead = (slice(None),) + (None,) * (r.ndim - 1)
    slope = rm.coef[-1]

    def log_marginal(policy: GaussianLinearPolicy) -> np.ndarray:
        # The common -log(2 pi) / 2 cancels in the difference.
        var = rm.sigma**2 + slope * slope * policy.variance
        resid = r - rm.mean(ctx, policy.mean(ctx))[lead]
        return -0.5 * (resid * resid / var + math.log(var))

    return log_marginal(pe) - log_marginal(pbhat)


@dataclass(frozen=True)
class CoppCalibration:
    """The calibration half of COPP, scored and weighted once.

    ``sorted_scores`` are the calibration non-conformity scores in stable
    ascending order and ``cum_weights`` the cumulative sums of their weights
    in that order. The weights are ``exp(log_w - log_shift)`` with
    ``log_shift`` the largest calibration log weight, so the largest is one
    and none overflows; the weighted quantile is unchanged when every weight,
    the candidate's included, is scaled by one constant. ``r_min`` and
    ``r_max`` are the calibration rewards' range; the candidate grid holds
    ``grid_size`` rewards evenly spaced over that range extended by
    ``_GRID_MARGIN`` of its span on each side.
    """

    sorted_scores: np.ndarray
    cum_weights: np.ndarray
    log_shift: float
    model: QuantilePairModel
    rm: RewardModelGaussian
    pbhat: StochasticPolicy
    pe: StochasticPolicy
    grid_size: int
    r_min: float
    r_max: float

    @staticmethod
    def from_scores(scores, log_weights, **fields) -> "CoppCalibration":
        """Sort ``scores`` (stably) and cumulate the shifted weights in that order."""
        scores = np.asarray(scores, dtype=float).reshape(-1)
        log_weights = np.asarray(log_weights, dtype=float).reshape(-1)
        shift = float(np.max(log_weights))
        order = np.argsort(scores, kind="stable")
        cum = np.cumsum(np.exp(log_weights[order] - shift))
        return CoppCalibration(scores[order], cum, shift, **fields)

    def grid(self) -> np.ndarray:
        """The reward candidates every test context is swept over."""
        span = max(self.r_max - self.r_min, 1e-12)
        margin = _GRID_MARGIN * span
        return np.linspace(self.r_min - margin, self.r_max + margin, self.grid_size)


def copp_calibrate(
    cal: LoggedDataset,
    model: QuantilePairModel,
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
    grid_size: int,
) -> CoppCalibration:
    """Score and weight the calibration half; hulls sweep ``grid_size`` reward candidates."""
    if len(cal) == 0:
        raise ValueError("COPP needs at least one calibration sample")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    scores = np.asarray(nonconformity(model, cal.contexts, cal.rewards))
    log_weights = copp_log_weights(rm, pbhat, pe, cal.contexts, cal.rewards)
    return CoppCalibration.from_scores(
        scores, log_weights, model=model, rm=rm, pbhat=pbhat, pe=pe, grid_size=grid_size,
        r_min=float(np.min(cal.rewards)), r_max=float(np.max(cal.rewards)),
    )


def copp_thresholds(calib: CoppCalibration, cand_log_weights, level: float) -> np.ndarray:
    """Per-candidate ``level``-quantile of the weighted score distribution.

    The distribution puts mass ``w_i / (W + c)`` on each calibration score and
    ``c / (W + c)`` on infinity, where ``c`` is the candidate's own weight,
    all shifted by ``calib.log_shift``. Returns one threshold per candidate,
    in the shape of ``cand_log_weights`` (``inf`` when the quantile lands on
    the atom). A shifted candidate weight beyond the float range outweighs
    the at most ``m`` calibration weights of at most one each, so its
    quantile is the atom. A relative 1e-9 slack keeps decimal levels stored
    as floats from selecting the next order statistic.
    """
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


@dataclass(frozen=True)
class CoppHulls:
    """Per-context hulls of the accepted grid candidates, one row per context.

    ``lo`` and ``hi`` are NaN where ``empty`` (no candidate accepted);
    ``non_contiguous`` flags an accepted set with gaps, whose hull is a
    conservative closure.
    """

    lo: np.ndarray
    hi: np.ndarray
    empty: np.ndarray
    non_contiguous: np.ndarray

    def lengths(self) -> np.ndarray:
        """Hull lengths, zero for an empty hull."""
        return np.where(self.empty, 0.0, self.hi - self.lo)


def copp_hull_batch(calib: CoppCalibration, contexts, epsilon: float) -> CoppHulls:
    """Weighted-CP hulls at a batch of contexts via the reward-candidate grid.

    Contexts do not interact: each row depends only on its own context, and
    a one-row batch gives the interval at one context.
    """
    ctx = _as_context_matrix(contexts)
    grid = calib.grid()
    log_weights = copp_log_weights(calib.rm, calib.pbhat, calib.pe, ctx, grid[None, :])
    thresholds = copp_thresholds(calib, log_weights, 1.0 - epsilon)
    q_lo, q_up = calib.model.quantiles(ctx)
    scores = np.maximum(q_lo[:, None] - grid, grid - q_up[:, None])
    included = scores <= thresholds
    empty = ~included.any(axis=1)
    first = np.argmax(included, axis=1)
    last = grid.size - 1 - np.argmax(included[:, ::-1], axis=1)
    non_contiguous = ~empty & (last - first + 1 != included.sum(axis=1))
    lo = np.where(empty, math.nan, grid[first])
    hi = np.where(empty, math.nan, grid[last])
    return CoppHulls(lo, hi, empty, non_contiguous)
