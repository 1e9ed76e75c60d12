"""Conditional-quantile estimation of reward given context via pinball loss.

The model is affine in the context, and its fit is exact and deterministic.
Affine pinball regression is the linear program of regression quantiles
(Koenker & Bassett 1978), solved here by the Frisch-Newton interior-point
method (Portnoy & Koenker 1997) to a duality gap of ``_LP_GAP_TOL``. Both
levels share one solve, and the model's ``train_losses`` hold the final
training loss alone. Quantile crossing is repaired pointwise at evaluation
time: wherever the fitted lower quantile exceeds the upper one, both are
replaced by their midpoint, so the induced interval family stays well-formed.
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


def _rows(mask: np.ndarray) -> slice:
    """The rows where ``mask`` holds, as one slice (exact for up to two rows)."""
    return slice(int(mask.argmax()), mask.size - int(mask[::-1].argmax()))


@np.errstate(over="ignore")
def _fit_levels(contexts: np.ndarray, y: np.ndarray, levels: tuple[float, ...]) -> np.ndarray:
    """Exact affine quantile regression weights at one or two ``levels``, one row each.

    Each level solves Koenker's dual of the pinball linear program,
    ``max y'a  s.t.  X'a = (1 - level) X'1,  0 <= a <= 1``, by the primal-dual
    Frisch-Newton method with Mehrotra's predictor-corrector, started from the
    centre ``a = 1/2`` of the box; the weights are the dual variables of the
    equality. The levels share one solve: their iterates are rows of buffers
    updated in place, and each product, p x p solve and reduction of a step is
    one call for all of them (a solve that finds a singular matrix is redone
    level by level). Each level keeps its own step lengths and stop test and is
    frozen once converged, so it gets exactly the weights of a solve of its own.
    The design (an intercept, then the contexts) is replaced by an orthonormal
    basis of its column space, so a rank-deficient design gets the minimum-norm
    weights of its optimal fitted values, and rewards are scaled by their mean
    absolute value. Raises ``ValueError`` if a level's duality gap does not
    close within the step cap.
    """
    n, k = y.shape[0], len(levels)
    scale = float(np.mean(np.abs(y)))
    if scale == 0.0:
        return np.zeros((k, contexts.shape[1] + 1))
    u, sv, vt = np.linalg.svd(_design(contexts), full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(u.shape[0], vt.shape[1]) * np.finfo(float).eps))
    q, sv, vt = u[:, :rank], sv[:rank], vt[:rank]
    yn = y / scale
    lev = np.array(levels, dtype=float)[:, None]
    b = (1.0 - lev) * q.sum(axis=0)
    offset = (1.0 - lev[:, 0]) * float(np.mean(yn))
    # Koenker's form minimises c'a with c = -yn; g gives the fitted values -q g.
    # Start g at least squares and z, w at its residuals, shifted positive. The
    # slack s = 1 - a is held negated, so each pair (a, -s), (z, w) is one array.
    an, zw, dzw, dr, pair = (np.empty((2, k, n)) for _ in range(5))
    (a, ns), (z, w), (d, r), (t0, t1), da = an, zw, dr, pair, np.empty((k, n))
    g = np.tile(-(q.T @ yn), (k, 1))
    np.subtract(np.negative(yn, out=r[0]), q @ g[0], out=r[0])
    an[:] = [[[0.5]], [[-0.5]]]
    z[:] = np.maximum(r[0], 0.0, out=z[0]) + 1e-3
    np.subtract(z, r[0], out=w)
    m, dg, fp, fd, mu = np.empty((k, rank, rank)), np.empty((k, rank)), *np.zeros((3, k))
    tiny = np.finfo(float).tiny

    def direction(rows, target, normal=False):
        """Newton direction of ``rows`` to complementarity ``target``, xi = target
        (1/a - 1/s), with the second-order terms (cz, cw) = (da dz, -da dw) that
        ``dzw`` holds (zero but in a corrector), and its step lengths."""
        AN, ZW, DZW, DR, P = an[:, rows], zw[:, rows], dzw[:, rows], dr[:, rows], pair[:, rows]
        DA, (D, R), (XI, RHS) = da[rows], DR, P
        np.divide(1.0, np.subtract(*np.divide(ZW, AN, out=P), out=D), out=D)  # 1/(z/a + w/s)
        for i in range(rows.start, rows.stop) if normal else ():
            m[i] = (q * d[i][:, None]).T @ q
        np.subtract(*ZW, out=R)
        np.multiply(np.add(*np.divide(1.0, AN, out=P), out=XI), target[:, None], out=XI)
        np.subtract(np.add(R, DZW[0], out=RHS), DZW[1], out=RHS)
        np.multiply(np.subtract(RHS, XI, out=RHS), D, out=RHS)  # d (r + cz - cw - xi)
        rhs = rho[rows] + (q.T @ RHS[:, :, None])[:, :, 0]
        try:
            dg[rows] = np.linalg.solve(m[rows], rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # some level's matrix is singular: solve each alone
            for i, ri in zip(range(rows.start, rows.stop), rhs):
                try:
                    dg[i] = np.linalg.solve(m[i], ri)
                except np.linalg.LinAlgError:
                    dg[i] = np.linalg.lstsq(m[i], ri, rcond=None)[0]
        np.add(np.matmul(q, dg[rows, :, None], out=DA[:, :, None])[:, :, 0], XI, out=DA)
        np.subtract(np.subtract(DA, R, out=DA), DZW[0], out=DA)
        np.multiply(np.add(DA, DZW[1], out=DA), D, out=DA)  # d (q dg + xi - r - cz + cw)
        # (dz, dw) = (target/a - z - z/a da, target/s - w + w/s da) - (cz, cw)
        np.divide(np.multiply.outer([1.0, -1.0], target)[:, :, None], AN, out=P)
        P -= ZW
        P -= np.multiply(np.divide(ZW, AN, out=DR), DA, out=DR)
        np.subtract(P, DZW, out=DZW)
        # A pair's ratios v / min(dv, -tiny) are minus the step to the boundary
        # where dv < 0 and at most -1 elsewhere; -s / max(da, tiny) is s's.
        np.minimum(DA, -tiny, out=P[0])
        np.maximum(DA, tiny, out=P[1])
        fp[rows] = np.minimum(1.0, -_LP_STEP_FRACTION * np.divide(AN, P, out=P).max(axis=(0, 2)))
        np.divide(ZW, np.minimum(DZW, -tiny, out=P), out=P)
        fd[rows] = np.minimum(1.0, -_LP_STEP_FRACTION * P.max(axis=(0, 2)))

    for step in range(_LP_MAX_STEPS + 1):
        rho = b - (q.T @ a[:, :, None])[:, :, 0]
        # Weak duality: any feasible a bounds the optimal mean loss from below.
        np.add(yn, np.matmul(q, g[:, :, None], out=t0[:, :, None])[:, :, 0], out=t0)
        np.maximum(np.multiply(t0, lev - 1.0, out=t1), np.multiply(t0, lev, out=t0), out=t0)
        gap = np.add.reduce(t0, axis=1) / n - (_dots(a, yn) / n - offset)
        done = (gap <= _LP_GAP_TOL) & (np.abs(rho).max(axis=1) <= _LP_GAP_TOL * math.sqrt(n))
        if done.all():
            break
        if step == _LP_MAX_STEPS:
            i = int(np.argmin(done))
            raise ValueError(f"affine quantile fit at level {levels[i]}: relative duality gap "
                             f"{gap[i]:.3g} did not close within {_LP_MAX_STEPS} Newton steps")
        act = _rows(~done)
        dzw[:, act] = 0.0
        direction(act, np.zeros(act.stop - act.start), normal=True)
        if (need := ~done & (np.minimum(fp, fd) < 1.0)).any():
            rows = _rows(need)
            P, DZW, DA, R = pair[:, rows], dzw[:, rows], da[rows], r[rows]
            mu[rows] = _dots(z[rows], a[rows]) - _dots(w[rows], ns[rows])
            np.add(np.multiply(DZW, fd[rows, None], out=P), zw[:, rows], out=P)
            np.multiply(DZW, DA, out=DZW)[1] *= -1.0
            DA *= fp[rows, None]
            mu_aff = _dots(P[0], np.add(a[rows], DA, out=R))
            mu_aff -= _dots(P[1], np.add(DA, ns[rows], out=DA))
            target = [v * (va / v) ** 3 / (2.0 * n) for v, va in zip(mu[rows].tolist(), mu_aff.tolist())]
            direction(rows, np.array(target))
            if (centre := need & (np.minimum(fp, fd) < _LP_MIN_STEP)).any():
                # Centre halfway towards the mean complementarity mu / (2n).
                rows = _rows(centre)
                dzw[:, rows] = 0.0
                direction(rows, 0.25 * mu[rows] / n)
        an[:, act] += np.multiply(da[act], fp[act, None], out=da[act])
        g[act] += fd[act, None] * dg[act]
        zw[:, act] += np.multiply(dzw[:, act], fd[act, None], out=pair[:, act])
    return (vt.T @ (-g / sv)[:, :, None])[:, :, 0] * scale


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[i] @ y[i]`` for each row ``i`` of ``x``, each the same BLAS dot as on its own."""
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


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
    ctx = _as_context_matrix(train.contexts)
    y = np.asarray(train.rewards, dtype=float)
    w_lo, w_up = _fit_levels(ctx, y, (eps_lo, eps_up))
    x1 = _design(ctx)
    losses = tuple(
        np.array([np.mean(pinball_loss(y - x1 @ w, level))])
        for w, level in ((w_lo, eps_lo), (w_up, eps_up))
    )
    return QuantilePairModel(w_lo, w_up, (eps_lo, eps_up), losses)
