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

The public COPP API runs in three steps. :func:`copp_calibrate` scores and
weights the calibration half once and returns a :class:`CoppCalibration`
holding the sorted scores and their cumulative weights. :func:`copp_weights`
estimates weights at any ``(s, r)`` pairs and :func:`copp_thresholds` turns
candidate weights into weighted-quantile thresholds. :func:`copp_hull_batch`
sweeps the reward grid at a batch of test contexts in memory-bounded chunks
and returns the hull of the accepted candidates per context;
:func:`copp_predict` is its one-context form. Each weight estimate draws one
seed from the caller's stream and one block of standard normals from it; for
Gaussian policies that block serves both the behavior and the target actions
(common random numbers), so identical policies give a weight of exactly one.

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
    "CoppCalibration",
    "CoppHulls",
    "CoppInterval",
    "fit_reward_model",
    "copp_weight",
    "copp_weights",
    "copp_calibrate",
    "copp_thresholds",
    "copp_hull_batch",
    "copp_predict",
    "copp_rs_predict",
]

_SIGMA_FLOOR = 1e-3
_SNAP = 1e-9
# Floats in one (contexts, grid, Monte Carlo) block of the hull sweep: 1 MiB.
_HULL_BLOCK_FLOATS = 1 << 17


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


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _stream(rng: np.random.Generator) -> np.random.Generator:
    # One derived stream per weight estimate, keyed by one draw from ``rng``.
    return _philox(int(rng.integers(0, 2**63)))


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

    Both action sets are drawn from copies of one derived stream (common
    random numbers), so identical policies give a weight of exactly one. A
    zero denominator (all behavior-action densities underflow) gives weight
    zero; callers count those occurrences in their diagnostics.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    ctx = np.repeat(_as_context_matrix(s), h, axis=0)
    seed = int(rng.integers(0, 2**63))
    a_b = pbhat.sample(ctx, _philox(seed))
    a_e = pe.sample(ctx, _philox(seed))
    r_rep = np.full(h, float(r))
    num = float(np.sum(rm.density(r_rep, ctx, a_e)))
    den = float(np.sum(rm.density(r_rep, ctx, a_b)))
    if den <= 0.0:
        return 0.0
    return num / den


def _gaussian_weights(
    rm: RewardModelGaussian,
    pbhat: GaussianLinearPolicy,
    pe: GaussianLinearPolicy,
    ctx: np.ndarray,
    rewards: np.ndarray,
    z: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Weights from one standard-normal block ``z`` shared by both policies.

    Row ``i`` of ``ctx`` indexes the leading axis of ``z``, whose last axis
    holds the ``h`` Monte Carlo draws; ``rewards`` broadcasts against ``z``
    without its last axis. The density sums run in place in one scratch
    block, with the same floating-point operations as the expression
    ``exp(-0.5 * ((r - (base + c * (mean + sd * z))) / sigma) ** 2)``.
    """
    lead = (slice(None),) + (None,) * (z.ndim - 1)
    base = (rm.coef[0] + ctx @ rm.coef[1:-1])[lead]
    r = rewards[..., None]
    norm = rm.sigma * math.sqrt(2.0 * math.pi)
    t = np.empty(z.shape)
    sums = []
    for policy in (pe, pbhat):
        np.multiply(z, math.sqrt(policy.variance), out=t)
        t += policy.mean(ctx)[lead]
        t *= rm.coef[-1]
        t += base
        np.subtract(r, t, out=t)
        t /= rm.sigma
        np.square(t, out=t)
        t *= -0.5
        sums.append(np.exp(t, out=t).sum(axis=-1) / norm)
    num, den = sums
    zero = den <= 0.0
    weights = np.zeros(den.shape)
    weights[~zero] = num[~zero] / den[~zero]
    return weights, int(np.count_nonzero(zero))


def _gaussian(pbhat: StochasticPolicy, pe: StochasticPolicy) -> bool:
    return isinstance(pbhat, GaussianLinearPolicy) and isinstance(pe, GaussianLinearPolicy)


def copp_weights(
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
    contexts: np.ndarray,
    rewards: np.ndarray,
    h: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Candidate weights at many ``(s, r)`` pairs.

    Fast path for Gaussian policies: one seed from ``rng`` keys one ``(n, h)``
    block of standard normals, which is location-scaled per row for both
    policies (common random numbers), so each pair gets its own ``h`` draws.
    Other policies fall back to :func:`copp_weight` per pair, one seed each.
    Returns the weights and the number of zero denominators encountered.
    """
    ctx = _as_context_matrix(contexts)
    r = np.asarray(rewards, dtype=float).reshape(-1)
    n = ctx.shape[0]
    if n == 0:
        return np.empty(0), 0
    if _gaussian(pbhat, pe):
        return _gaussian_weights(rm, pbhat, pe, ctx, r, _stream(rng).standard_normal((n, h)))
    weights = np.empty(n)
    for i in range(n):
        weights[i] = copp_weight(rm, pbhat, pe, ctx[i], float(r[i]), h, rng)
    return weights, int(np.count_nonzero(weights == 0.0))


@dataclass(frozen=True)
class CoppCalibration:
    """The calibration half of COPP, scored and weighted once.

    ``sorted_scores`` are the calibration non-conformity scores in stable
    ascending order and ``cum_weights`` the cumulative sums of their estimated
    weights in that order. ``r_min`` and ``r_max`` are the calibration rewards'
    range, which the candidate grid extends by ``cfg.grid_margin`` of its span
    on each side. ``zero_denominator_count`` counts the calibration weights
    whose Monte Carlo denominator underflowed.
    """

    sorted_scores: np.ndarray
    cum_weights: np.ndarray
    model: QuantilePairModel
    rm: RewardModelGaussian
    pbhat: StochasticPolicy
    pe: StochasticPolicy
    cfg: CoppConfig
    r_min: float
    r_max: float
    zero_denominator_count: int = 0

    @staticmethod
    def from_scores(scores, weights, **fields) -> "CoppCalibration":
        """Sort ``scores`` (stably) and cumulate ``weights`` in that order."""
        scores = np.asarray(scores, dtype=float).reshape(-1)
        order = np.argsort(scores, kind="stable")
        cum = np.cumsum(np.asarray(weights, dtype=float).reshape(-1)[order])
        return CoppCalibration(scores[order], cum, **fields)

    def grid(self) -> np.ndarray:
        """The reward candidates every test context is swept over."""
        span = max(self.r_max - self.r_min, 1e-12)
        margin = self.cfg.grid_margin * span
        return np.linspace(self.r_min - margin, self.r_max + margin, self.cfg.grid_size)


def copp_calibrate(
    cal: LoggedDataset,
    model: QuantilePairModel,
    rm: RewardModelGaussian,
    pbhat: StochasticPolicy,
    pe: StochasticPolicy,
    cfg: CoppConfig,
    rng: np.random.Generator,
) -> CoppCalibration:
    """Score and weight the calibration half; the weights consume ``rng``."""
    if len(cal) == 0:
        raise ValueError("COPP needs at least one calibration sample")
    scores = np.asarray(nonconformity(model, cal.contexts, cal.rewards))
    weights, zeros = copp_weights(rm, pbhat, pe, cal.contexts, cal.rewards, cfg.mc_samples, rng)
    return CoppCalibration.from_scores(
        scores, weights, model=model, rm=rm, pbhat=pbhat, pe=pe, cfg=cfg,
        r_min=float(np.min(cal.rewards)), r_max=float(np.max(cal.rewards)),
        zero_denominator_count=zeros,
    )


def copp_thresholds(calib: CoppCalibration, cand_weights, level: float) -> np.ndarray:
    """Per-candidate ``level``-quantile of the weighted score distribution.

    The distribution puts mass ``w_i / (W + c)`` on each calibration score and
    ``c / (W + c)`` on infinity, where ``c`` is the candidate's own weight.
    Returns one threshold per candidate, in the shape of ``cand_weights``
    (``inf`` when the quantile lands on the atom). A relative 1e-9 slack
    keeps decimal levels stored as floats from selecting the next order
    statistic.
    """
    cum = calib.cum_weights
    total = cum[-1] if cum.size else 0.0
    targets = level * (total + np.asarray(cand_weights, dtype=float))
    targets = targets - _SNAP * np.maximum(1.0, np.abs(targets))
    idx = np.searchsorted(cum, targets, side="left")
    thresholds = np.full(targets.shape, math.inf)
    hit = idx < calib.sorted_scores.shape[0]
    thresholds[hit] = calib.sorted_scores[idx[hit]]
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


@dataclass(frozen=True)
class CoppHulls:
    """Per-context hulls of the accepted grid candidates, one row per context.

    ``lo`` and ``hi`` are NaN where ``empty`` (no candidate accepted);
    ``non_contiguous`` flags an accepted set with gaps, whose hull is a
    conservative closure. ``zero_denominator_count`` totals the zero
    denominators of the grid weights over all contexts.
    """

    lo: np.ndarray
    hi: np.ndarray
    empty: np.ndarray
    non_contiguous: np.ndarray
    zero_denominator_count: int

    def lengths(self) -> np.ndarray:
        """Hull lengths, zero for an empty hull."""
        return np.where(self.empty, 0.0, self.hi - self.lo)


def copp_hull_batch(
    calib: CoppCalibration, contexts, epsilon: float, rng: np.random.Generator
) -> CoppHulls:
    """Weighted-CP hulls at a batch of contexts via the reward-candidate grid.

    Every grid weight gets its own block of ``mc_samples`` Monte Carlo draws,
    so the grid weights are independent estimates. Contexts are swept in
    order, each drawing its seed (Gaussian policies) or one seed per grid
    point (other policies) from ``rng``, in chunks whose
    ``(contexts, grid_size, mc_samples)`` normal block stays within
    ``_HULL_BLOCK_FLOATS`` floats.
    """
    ctx = _as_context_matrix(contexts)
    cfg, rm, pbhat, pe = calib.cfg, calib.rm, calib.pbhat, calib.pe
    n, g, h = ctx.shape[0], cfg.grid_size, cfg.mc_samples
    grid = calib.grid()
    weights = np.empty((n, g))
    zeros = 0
    if _gaussian(pbhat, pe):
        step = max(1, _HULL_BLOCK_FLOATS // (g * h))
        for start in range(0, n, step):
            part = ctx[start:start + step]
            z = np.empty((part.shape[0], g, h))
            for block in z:
                _stream(rng).standard_normal(out=block)
            weights[start:start + part.shape[0]], count = _gaussian_weights(
                rm, pbhat, pe, part, grid[None, :], z
            )
            zeros += count
    else:
        for j in range(n):
            weights[j], count = copp_weights(
                rm, pbhat, pe, np.repeat(ctx[j:j + 1], g, axis=0), grid, h, rng
            )
            zeros += count
    thresholds = copp_thresholds(calib, weights, 1.0 - epsilon)
    q_lo, q_up = calib.model.quantiles(ctx)
    scores = np.maximum(q_lo[:, None] - grid, grid - q_up[:, None])
    included = scores <= thresholds
    empty = ~included.any(axis=1)
    first = np.argmax(included, axis=1)
    last = g - 1 - np.argmax(included[:, ::-1], axis=1)
    non_contiguous = ~empty & (last - first + 1 != included.sum(axis=1))
    lo = np.where(empty, math.nan, grid[first])
    hi = np.where(empty, math.nan, grid[last])
    return CoppHulls(lo, hi, empty, non_contiguous, zeros)


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
    """Weighted-CP interval at one context ``s``: the one-context hull batch.

    The grid spans the calibration rewards' empirical range extended by the
    configured margin. Every weight gets its own block of ``mc_samples``
    Monte Carlo action draws: one block per calibration point, and a fresh
    block per grid point, so the grid weights are independent estimates.
    The zero-denominator count covers the calibration and the grid weights.
    """
    if len(cal) == 0:
        return CoppInterval(PredictionInterval.whole_line(), False, False, 0)
    calib = copp_calibrate(cal, model, rm, pbhat, pe, cfg, rng)
    hulls = copp_hull_batch(calib, np.asarray(s, dtype=float).reshape(1, -1), epsilon, rng)
    empty = bool(hulls.empty[0])
    interval = None if empty else PredictionInterval(float(hulls.lo[0]), float(hulls.hi[0]))
    return CoppInterval(
        interval, empty, bool(hulls.non_contiguous[0]),
        hulls.zero_denominator_count + calib.zero_denominator_count,
    )


def copp_rs_predict(scores, model: QuantilePairModel, s, epsilon: float) -> PredictionInterval:
    """Interval from the plain ``1 - eps`` empirical-quantile threshold."""
    threshold = split_cp_threshold(scores, 1.0 - epsilon)
    lo, up = model.quantiles(s)
    if math.isinf(threshold):
        return PredictionInterval.whole_line()
    return PredictionInterval(float(lo[0]) - threshold, float(up[0]) + threshold)
