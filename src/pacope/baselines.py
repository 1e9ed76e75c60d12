"""Comparison methods: weighted conformal prediction with exact
density-ratio weights (COPP), and rejection sampling with a plain empirical
quantile threshold (COPP-RS).

COPP weights ``(s, r)`` by the ratio of the target and behavior reward
marginals of a fitted conditional reward model,
``w(s, r) = integral pi_e(a|s) P_hat(r|s,a) da / integral pi_hat_b(a|s) P_hat(r|s,a) da``.
The reward model is Gaussian with an affine mean and both policies are
Gaussian-linear, so each marginal is a Gaussian density in closed form and
the weights are exact; they travel as log weights. A candidate reward is
accepted when its non-conformity score lies below the ``1 - eps`` quantile
of the weighted empirical distribution of calibration scores plus an
infinity atom carrying the candidate's own weight.

The public COPP API runs in three steps. :func:`copp_calibrate` scores and
weights the calibration half once and returns a :class:`CoppCalibration`
holding the sorted scores and their cumulative weights.
:func:`copp_log_weights` gives the log weights at any ``(s, r)`` pairs, and
:func:`copp_sets` the accepted set at a batch of contexts in closed form, as
a :class:`CoppSets` of disjoint intervals: the log weight is a quadratic in
``r`` and the threshold a step function of it, so the set is a union of
intervals bounded by quadratic roots and band ends, with no reward grid.

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
    _gaussian_log_ratio,
    _superlevel_ends,
)
from ._gd import fit_gaussian_affine
from .quantile import QuantilePairModel

__all__ = [
    "RewardModelGaussian",
    "CoppCalibration",
    "CoppSets",
    "fit_reward_model",
    "copp_log_weights",
    "copp_calibrate",
    "copp_sets",
]

_SIGMA_FLOOR = 1e-3
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


def _reward_marginal(
    rm: RewardModelGaussian, policy: GaussianLinearPolicy, ctx: np.ndarray
) -> tuple[np.ndarray, float]:
    """Mean per context and variance of the model's reward marginal under ``policy``."""
    slope = rm.coef[-1]
    return rm.mean(ctx, policy.mean(ctx)), rm.sigma**2 + slope * slope * policy.variance


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
    ``contexts`` pairs with ``rewards[i]``.
    """
    if not isinstance(pbhat, GaussianLinearPolicy) or not isinstance(pe, GaussianLinearPolicy):
        raise ValueError(
            "exact COPP weights are available for Gaussian policies only; "
            "pass GaussianLinearPolicy behavior and target policies"
        )
    ctx = _as_context_matrix(contexts)
    r = np.asarray(rewards, dtype=float)

    def log_marginal(policy: GaussianLinearPolicy) -> np.ndarray:
        # The common -log(2 pi) / 2 cancels in the difference.
        mean, var = _reward_marginal(rm, policy, ctx)
        resid = r - mean
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
    the candidate's included, is scaled by one constant.
    """

    sorted_scores: np.ndarray
    cum_weights: np.ndarray
    log_shift: float
    model: QuantilePairModel
    rm: RewardModelGaussian
    pbhat: StochasticPolicy
    pe: StochasticPolicy

    @staticmethod
    def from_scores(scores, log_weights, **fields) -> "CoppCalibration":
        """Sort ``scores`` (stably) and cumulate the shifted weights in that order."""
        scores = np.asarray(scores, dtype=float).reshape(-1)
        log_weights = np.asarray(log_weights, dtype=float).reshape(-1)
        shift = float(np.max(log_weights))
        order = np.argsort(scores, kind="stable")
        cum = np.cumsum(np.exp(log_weights[order] - shift))
        return CoppCalibration(scores[order], cum, shift, **fields)


def copp_calibrate(
    cal: LoggedDataset,
    model: QuantilePairModel,
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
) -> CoppCalibration:
    """Score and weight the calibration half once."""
    if len(cal) == 0:
        raise ValueError("COPP needs at least one calibration sample")
    scores = np.asarray(nonconformity(model, cal.contexts, cal.rewards))
    log_weights = copp_log_weights(rm, pbhat, pe, cal.contexts, cal.rewards)
    return CoppCalibration.from_scores(
        scores, log_weights, model=model, rm=rm, pbhat=pbhat, pe=pe
    )


@dataclass(frozen=True)
class CoppSets:
    """COPP's accepted reward sets at a batch of contexts, as disjoint pieces.

    Piece ``i`` is the interval ``[lo[i], hi[i]]`` of row ``row[i]``, one row
    per context. Pieces are sorted by row and then by position, and no two
    pieces of a row touch. An end is infinite where the set is unbounded,
    which happens when the candidate weight grows without bound in the reward.
    """

    lo: np.ndarray
    hi: np.ndarray
    row: np.ndarray
    n_rows: int

    def counts(self) -> np.ndarray:
        """Pieces per row."""
        return np.bincount(self.row, minlength=self.n_rows)

    def measure(self) -> np.ndarray:
        """Total length per row: 0 for an empty set, ``inf`` for an unbounded one."""
        return np.bincount(self.row, weights=self.hi - self.lo, minlength=self.n_rows)


def _log_weight_levels(calib: CoppCalibration, level: float) -> np.ndarray:
    """Log weights ``L[j]`` at which the threshold leaves ``sorted_scores[j]``.

    A candidate whose weight, shifted by ``calib.log_shift``, is ``c`` gets
    as threshold the ``level``-quantile of mass ``w_i / (W + c)`` on each
    calibration score and ``c / (W + c)`` on an infinity atom: the first
    ``sorted_scores[j]`` whose ``cum_weights[j]`` reaches ``level (W + c)``
    (less a relative 1e-9 snap, so that decimal levels stored as floats do
    not select the next order statistic), else the atom; a ``c`` beyond the
    float range takes the atom outright. So the threshold is
    ``sorted_scores[j]`` for a candidate log weight in ``(L[j-1], L[j]]`` and
    the atom above ``L[m-1]``. ``L[j]`` solves "snapped target
    ``= cum_weights[j]``" for the candidate weight; it is ``-inf`` where even
    a zero weight overshoots, and at most the atom's float-range cut.
    """
    cum = calib.cum_weights
    # Undo the snap: targets of at least one lose a relative _SNAP, smaller
    # ones an absolute _SNAP.
    targets = np.where(cum >= 1.0 - _SNAP, cum / (1.0 - _SNAP), cum + _SNAP)
    weights = targets / level - cum[-1]
    with np.errstate(divide="ignore"):
        shifted = np.log(np.maximum(weights, 0.0))
    return np.minimum(shifted, _LOG_FLOAT_MAX) + calib.log_shift


def copp_sets(calib: CoppCalibration, contexts, epsilon: float) -> CoppSets:
    """COPP's accepted reward sets at a batch of contexts, in closed form.

    A candidate ``r`` at context ``s`` is accepted when its score
    ``max(q_lo - r, r - q_up)`` is at most the weighted-quantile threshold
    of its log weight. The log weight is a quadratic ``a r^2 + b r + c`` in
    ``r`` (``a`` is shared by every context, since both policy variances
    are constant), and the threshold is ``sorted_scores[j]`` while the log
    weight lies in ``(L[j-1], L[j]]`` (:func:`_log_weight_levels`). So the set
    is the union over ``j`` of the level shell ``{L[j-1] < log w <= L[j]}``,
    at most two intervals, cut to the band
    ``[q_lo - sorted_scores[j], q_up + sorted_scores[j]]``, together with
    ``{log w > L[m-1]}`` whole. Touching pieces are merged.

    The set is bounded for ``a < 0``. For ``a > 0`` (a behavior marginal
    narrower than the target's) and for ``a = 0`` with a slope, the weight
    grows without bound in a tail and the set is unbounded. With identical
    policies every weight is one and the set is the split-CP interval.
    Contexts do not interact: each row depends only on its own context, and a
    one-row batch gives the set at one context. An ``epsilon`` outside
    ``(0, 1)`` raises ``ValueError``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    ctx = _as_context_matrix(contexts)
    mean_e, var_e = _reward_marginal(calib.rm, calib.pe, ctx)
    mean_b, var_b = _reward_marginal(calib.rm, calib.pbhat, ctx)
    a, b, c = _gaussian_log_ratio(mean_e, var_e, mean_b, var_b)
    levels = _log_weight_levels(calib, 1.0 - epsilon)
    # The shells below the first finite level are empty: skip their scores.
    skip = int(np.count_nonzero(levels == -math.inf))
    p, q = _superlevel_ends(a, b, c, np.concatenate(([-math.inf], levels[skip:], [math.inf])))
    # Shell j lies between the ends at levels j - 1 and j; the atom's shell
    # (the last) takes every score.
    scores = np.append(calib.sorted_scores[skip:], math.inf)
    lower, upper = calib.model.quantiles(ctx)
    band_lo = lower[:, None] - scores
    band_hi = upper[:, None] + scores
    # Columns run by level. Along them the p side moves left when a > 0 and
    # the q side moves left otherwise; that side is written through reversed
    # column views so that each row reads left to right, p side first.
    shells = scores.size
    lo, hi = np.empty((ctx.shape[0], 2 * shells)), np.empty((ctx.shape[0], 2 * shells))
    for side, (ends, reverse) in enumerate(((p, a > 0.0), (q, a <= 0.0))):
        cols, step = slice(side * shells, (side + 1) * shells), -1 if reverse else 1
        out = lo[:, cols][:, ::step]
        np.maximum(np.minimum(ends[:, :-1], ends[:, 1:], out=out), band_lo, out=out)
        out = hi[:, cols][:, ::step]
        np.minimum(np.maximum(ends[:, :-1], ends[:, 1:], out=out), band_hi, out=out)
    keep = lo < hi
    row = np.nonzero(keep)[0]
    lo, hi = lo[keep], hi[keep]
    # Merge touching pieces: a piece starts a new one at a new row or a gap.
    start = np.ones(lo.size, dtype=bool)
    start[1:] = (row[1:] != row[:-1]) | (lo[1:] > hi[:-1])
    stop = np.ones(lo.size, dtype=bool)
    stop[:-1] = start[1:]
    return CoppSets(lo[start], hi[stop], row[start], ctx.shape[0])
