"""Conditional-quantile estimation of reward given context via pinball loss.

The model is affine in the context, and its fit is exact and deterministic.
Affine pinball regression is the linear program of regression quantiles
(Koenker & Bassett 1978), solved here by the Frisch-Newton interior-point
method (Portnoy & Koenker 1997) to a duality gap of ``_LP_GAP_TOL``; the
model's ``train_losses`` hold the final training loss alone.

Quantile crossing is repaired pointwise at evaluation time: wherever the
fitted lower quantile exceeds the upper one, both are replaced by their
midpoint, so the induced interval family stays well-formed.

The model is written to and read from disk only as part of the predictor
file, whose format lives in ``calibrate.CalibratedPredictor.dump``/``load``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PacParams, _as_context_matrix
from .rejection import RsDataset

__all__ = [
    "QuantilePairModel",
    "pinball_loss",
    "fit_quantile_pair",
    "trivial_quantile_model",
]

def pinball_loss(u: float | np.ndarray, level: float) -> float | np.ndarray:
    """Check-function loss: ``u * level`` if ``u >= 0`` else ``u * (level - 1)``."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    arr = np.asarray(u, dtype=float)
    out = np.where(arr >= 0.0, arr * level, arr * (level - 1.0))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


# The affine fit stops once the duality gap of the mean pinball loss, in units
# of the mean absolute reward, and the equality residual of the LP, in units of
# sqrt(n), are both at most _LP_GAP_TOL. It raises if that takes more than
# _LP_MAX_STEPS Newton steps.
_LP_GAP_TOL = 1e-10
_LP_MAX_STEPS = 200
# Fraction of the step to the boundary that each Newton step takes.
_LP_STEP_FRACTION = 0.99995
# A corrected step shorter than this is replaced by a pure centring step.
_LP_MIN_STEP = 0.01


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """``_LP_STEP_FRACTION`` of the longest step ``t <= 1`` keeping ``v + t dv >= 0``."""
    ratio = np.divide(v, -dv, out=np.full(v.shape, np.inf), where=dv < 0.0)
    return min(1.0, _LP_STEP_FRACTION * float(ratio.min()))


def _solve_small(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(m, rhs, rcond=None)[0]


def _newton_direction(q, m, d, rho, a, s, z, w, mu, corr_z, corr_w):
    """Newton direction towards complementarity ``mu`` and its step lengths.

    ``corr_z``/``corr_w`` are Mehrotra's second-order terms (zero for the
    affine-scaling and the pure centring directions).
    """
    xi = mu * (1.0 / a - 1.0 / s)
    r = z - w
    dg = _solve_small(m, rho + q.T @ (d * (r + corr_z - corr_w - xi)))
    da = d * (q @ dg + xi - r - corr_z + corr_w)
    dz = mu / a - z - z / a * da - corr_z
    dw = mu / s - w + w / s * da - corr_w
    fp = min(_max_step(a, da), _max_step(s, -da))
    fd = min(_max_step(z, dz), _max_step(w, dw))
    return da, dg, dz, dw, fp, fd


def _fit_affine(x1: np.ndarray, y: np.ndarray, level: float) -> np.ndarray:
    """Exact affine ``level``-quantile regression weights.

    Solves Koenker's dual of the pinball linear program,

        max y'a  subject to  X'a = (1 - level) X'1,  0 <= a <= 1,

    by the primal-dual Frisch-Newton method with Mehrotra's
    predictor-corrector, started from the centre ``a = 1/2`` of the box, which
    is infeasible for the equality; the Newton steps remove that
    infeasibility. The weights are the dual variables of the equality
    constraints. Each Newton step solves one p x p system.

    The design is first replaced by an orthonormal basis of its column space,
    so a rank-deficient design (all contexts equal, say) gets the
    minimum-norm weights of its optimal fitted values. Rewards are scaled by
    their mean absolute value, so the tolerances are scale-free. Raises
    ``ValueError`` if the duality gap does not close within the step cap.
    """
    n = y.shape[0]
    scale = float(np.mean(np.abs(y)))
    if scale == 0.0:
        return np.zeros(x1.shape[1])
    u, sv, vt = np.linalg.svd(x1, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(x1.shape) * np.finfo(float).eps))
    q, sv, vt = u[:, :rank], sv[:rank], vt[:rank]
    yn = y / scale
    b = (1.0 - level) * q.sum(axis=0)
    offset = (1.0 - level) * float(np.mean(yn))
    # In Koenker's form the objective is min c'a with c = -yn, and g (dual of
    # the equality) gives the fitted values -q @ g. Start g at least squares,
    # and the bound multipliers z, w at its residuals, shifted to be positive.
    a = np.full(n, 0.5)
    s = 1.0 - a
    g = -(q.T @ yn)
    r = -yn - q @ g
    z = np.maximum(r, 0.0) + 1e-3
    w = z - r
    for step in range(_LP_MAX_STEPS + 1):
        rho = b - q.T @ a
        # Weak duality: any feasible a bounds the optimal mean loss from below.
        gap = float(np.mean(pinball_loss(yn + q @ g, level))) - (float(yn @ a) / n - offset)
        if gap <= _LP_GAP_TOL and float(np.max(np.abs(rho))) <= _LP_GAP_TOL * math.sqrt(n):
            break
        if step == _LP_MAX_STEPS:
            raise ValueError(
                f"affine quantile fit at level {level}: relative duality gap {gap:.3g} "
                f"did not close within {_LP_MAX_STEPS} Newton steps"
            )
        d = 1.0 / (z / a + w / s)
        m = (q * d[:, None]).T @ q
        state = (q, m, d, rho, a, s, z, w)
        da, dg, dz, dw, fp, fd = _newton_direction(*state, 0.0, 0.0, 0.0)
        if min(fp, fd) < 1.0:
            mu = float(z @ a + w @ s)
            mu_aff = float((z + fd * dz) @ (a + fp * da) + (w + fd * dw) @ (s - fp * da))
            target = mu * (mu_aff / mu) ** 3 / (2.0 * n)
            da, dg, dz, dw, fp, fd = _newton_direction(*state, target, da * dz, -da * dw)
            if min(fp, fd) < _LP_MIN_STEP:
                # Centre halfway towards the mean complementarity mu / (2n).
                da, dg, dz, dw, fp, fd = _newton_direction(*state, 0.25 * mu / n, 0.0, 0.0)
        a = a + fp * da
        s = s - fp * da
        g = g + fd * dg
        z = z + fd * dz
        w = w + fd * dw
    return vt.T @ (-g / sv) * scale


def _design(contexts: np.ndarray) -> np.ndarray:
    """The affine design: an intercept column, then the contexts."""
    return np.hstack([np.ones((contexts.shape[0], 1)), contexts])


@dataclass(frozen=True)
class QuantilePairModel:
    """Fitted lower/upper affine conditional-quantile functions.

    ``w_lo`` / ``w_up`` are the weight vectors, intercept first, of the
    levels ``levels``. Evaluation applies the midpoint crossing fix, so
    ``quantiles`` always returns ``lo <= up`` pointwise.
    """

    w_lo: np.ndarray
    w_up: np.ndarray
    levels: tuple[float, float]
    train_losses: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def context_dim(self) -> int:
        """Dimension of the contexts the model takes."""
        return int(np.shape(self.w_lo)[0]) - 1

    def quantiles(self, contexts) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate ``(q_lo, q_up)`` with the midpoint crossing fix applied."""
        ctx = _as_context_matrix(contexts)
        if ctx.shape[1] != self.context_dim:
            raise ValueError(
                f"contexts have dimension {ctx.shape[1]}, the model takes {self.context_dim}"
            )
        x1 = _design(ctx)
        lo = x1 @ self.w_lo
        up = x1 @ self.w_up
        crossed = lo > up
        if np.any(crossed):
            mid = 0.5 * (lo[crossed] + up[crossed])
            lo[crossed] = mid
            up[crossed] = mid
        return lo, up


def trivial_quantile_model(levels: tuple[float, float], context_dim: int = 1) -> QuantilePairModel:
    """Constant-zero quantile pair, used by degenerate calibration paths."""
    w = np.zeros(context_dim + 1)
    return QuantilePairModel(w, w.copy(), levels)


def fit_quantile_pair(train: RsDataset, params: PacParams) -> QuantilePairModel:
    """Fit the lower and upper conditional quantiles on accepted pairs.

    The levels are ``(params.eps_lo, params.eps_up)``; the fit is
    deterministic.
    """
    if len(train) < 2:
        raise ValueError("insufficient training data: need at least 2 samples")
    eps_lo, eps_up = params.eps_lo, params.eps_up
    for level in (eps_lo, eps_up):
        if not 0.0 < level < 1.0:
            raise ValueError("quantile levels must lie in (0, 1)")
    x1 = _design(_as_context_matrix(train.contexts))
    y = np.asarray(train.rewards, dtype=float)
    w_lo = _fit_affine(x1, y, eps_lo)
    w_up = _fit_affine(x1, y, eps_up)
    losses = tuple(
        np.array([np.mean(pinball_loss(y - x1 @ w, level))])
        for w, level in ((w_lo, eps_lo), (w_up, eps_up))
    )
    return QuantilePairModel(w_lo, w_up, (eps_lo, eps_up), losses)
