"""Conditional-quantile estimation of reward given context via pinball loss.

Two model families are provided: an affine model (the deterministic default
used throughout the benchmarks) and a one-hidden-layer network with a smooth
ramp (softplus) activation.

The affine fit is exact. Affine pinball regression is the linear program of
regression quantiles (Koenker & Bassett 1978), solved here by the
Frisch-Newton interior-point method (Portnoy & Koenker 1997) to a duality gap
of ``_LP_GAP_TOL``; its ``train_losses`` hold the final training loss alone.
The network is trained by full-batch (sub)gradient descent whose learning rate
is halved whenever a step would increase the training loss; the step is
rejected, so the recorded loss sequence is non-increasing by construction.

Quantile crossing is repaired pointwise at evaluation time: wherever the
fitted lower quantile exceeds the upper one, both are replaced by their
midpoint, so the induced interval family stays well-formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import PacParams, _as_context_matrix, _field, _key_values
from .rejection import RsDataset

__all__ = [
    "QuantileTrainConfig",
    "QuantilePairModel",
    "pinball_loss",
    "fit_quantile_pair",
    "trivial_quantile_model",
]

_MODEL_KINDS = ("affine", "mlp")


@dataclass(frozen=True)
class QuantileTrainConfig:
    """Training knobs for the quantile fitter.

    The affine model is fitted exactly and ignores ``learning_rate`` and
    ``epochs``. The network uses a symmetric small-range initialization drawn
    from the caller's stream and full-batch training for ``epochs`` steps;
    ``learning_rate`` is the initial step size of the halving-on-increase
    schedule.
    """

    model_kind: str = "affine"
    hidden_width: int = 32
    learning_rate: float = 1e-2
    epochs: int = 500

    def __post_init__(self) -> None:
        if self.model_kind not in _MODEL_KINDS:
            raise ValueError(f"model_kind must be one of {_MODEL_KINDS}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.model_kind == "mlp" and self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")


def pinball_loss(u: float | np.ndarray, level: float) -> float | np.ndarray:
    """Check-function loss: ``u * level`` if ``u >= 0`` else ``u * (level - 1)``."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    arr = np.asarray(u, dtype=float)
    out = np.where(arr >= 0.0, arr * level, arr * (level - 1.0))
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def _pinball_mean(resid: np.ndarray, level: float) -> float:
    return float(np.mean(np.where(resid >= 0.0, resid * level, resid * (level - 1.0))))


def _pinball_slope(resid: np.ndarray, level: float) -> np.ndarray:
    # Subgradient of the check function; the kink at zero takes the level.
    return np.where(resid >= 0.0, level, level - 1.0)


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
        gap = _pinball_mean(yn + q @ g, level) - (float(yn @ a) / n - offset)
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


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _mlp_forward(params, x):
    w1, b1, w2, b2 = params
    z = x @ w1 + b1
    return _softplus(z) @ w2 + b2, z


def _fit_mlp(x, y, level, lr, epochs, width, rng):
    n, d = x.shape
    params = [
        rng.uniform(-0.1, 0.1, size=(d, width)),
        rng.uniform(-0.1, 0.1, size=width),
        rng.uniform(-0.1, 0.1, size=width),
        rng.uniform(-0.1, 0.1),
    ]
    out, z = _mlp_forward(params, x)
    cur = _pinball_mean(y - out, level)
    losses = np.empty(epochs)
    for t in range(epochs):
        resid = y - out
        dout = -_pinball_slope(resid, level) / n
        h = _softplus(z)
        dw2 = h.T @ dout
        db2 = dout.sum()
        dz = np.outer(dout, params[2]) * expit(z)
        dw1 = x.T @ dz
        db1 = dz.sum(axis=0)
        cand = [
            params[0] - lr * dw1,
            params[1] - lr * db1,
            params[2] - lr * dw2,
            params[3] - lr * db2,
        ]
        out_cand, z_cand = _mlp_forward(cand, x)
        new = _pinball_mean(y - out_cand, level)
        if new > cur:
            lr *= 0.5
        else:
            params, out, z, cur = cand, out_cand, z_cand, new
        losses[t] = cur
    return params, losses


@dataclass(frozen=True)
class QuantilePairModel:
    """Fitted lower/upper conditional-quantile functions.

    ``params_lo`` / ``params_up`` hold the affine weight vector or the network
    parameter list depending on ``kind``. Evaluation applies the midpoint
    crossing fix, so ``quantiles`` always returns ``lo <= up`` pointwise.
    """

    kind: str
    params_lo: tuple
    params_up: tuple
    levels: tuple[float, float]
    train_losses: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def context_dim(self) -> int:
        """Dimension of the contexts the model takes."""
        rows = int(np.shape(self.params_lo[0])[0])
        return rows - 1 if self.kind == "affine" else rows

    def _raw(self, params: tuple, ctx: np.ndarray) -> np.ndarray:
        if self.kind == "affine":
            (w,) = params
            x1 = np.hstack([np.ones((ctx.shape[0], 1)), ctx])
            return x1 @ w
        out, _ = _mlp_forward(params, ctx)
        return out

    def quantiles(self, contexts) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate ``(q_lo, q_up)`` with the midpoint crossing fix applied."""
        ctx = _as_context_matrix(contexts)
        if ctx.shape[1] != self.context_dim:
            raise ValueError(
                f"contexts have dimension {ctx.shape[1]}, the model takes {self.context_dim}"
            )
        lo = self._raw(self.params_lo, ctx)
        up = self._raw(self.params_up, ctx)
        crossed = lo > up
        if np.any(crossed):
            mid = 0.5 * (lo[crossed] + up[crossed])
            lo[crossed] = mid
            up[crossed] = mid
        return lo, up

    def q_lo(self, s) -> float:
        return float(self.quantiles(s)[0][0])

    def q_up(self, s) -> float:
        return float(self.quantiles(s)[1][0])

    def dump(self) -> str:
        """Flat text serialization, round-trip exact."""
        lines = [f"kind={self.kind}", f"eps_lo={self.levels[0]!r}", f"eps_up={self.levels[1]!r}"]
        for tag, params in (("lo", self.params_lo), ("up", self.params_up)):
            for i, arr in enumerate(params):
                flat = np.asarray(arr, dtype=float).reshape(-1)
                shape = ",".join(str(v) for v in np.shape(arr))
                values = " ".join(repr(float(v)) for v in flat)
                lines.append(f"{tag}.{i}.shape={shape}")
                lines.append(f"{tag}.{i}.values={values}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def load(text: str) -> "QuantilePairModel":
        """Inverse of ``dump``; a missing or malformed field raises ``ValueError``."""
        fields = _key_values(text.splitlines())
        kind = _field(fields, "kind", str)
        if kind not in _MODEL_KINDS:
            raise ValueError(f"predictor file: unknown model kind {kind!r}")
        levels = (_field(fields, "eps_lo"), _field(fields, "eps_up"))
        params: dict[str, list] = {"lo": [], "up": []}
        for tag in ("lo", "up"):
            i = 0
            while f"{tag}.{i}.values" in fields:
                shape = _field(fields, f"{tag}.{i}.shape", _parse_shape)
                flat = _field(fields, f"{tag}.{i}.values", _parse_values)
                if flat.size != math.prod(shape):
                    raise ValueError(f"predictor file: {tag}.{i} values do not fill shape {shape}")
                params[tag].append(flat.reshape(shape) if shape else float(flat[0]))
                i += 1
        shapes = [tuple(np.shape(p) for p in params[tag]) for tag in ("lo", "up")]
        if shapes[0] != shapes[1] or not _valid_shapes(kind, shapes[0]):
            raise ValueError(f"predictor file: parameter shapes {shapes} do not fit a {kind} model")
        return QuantilePairModel(kind, tuple(params["lo"]), tuple(params["up"]), levels)


def _parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v != "")


def _parse_values(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()], dtype=float)


def _valid_shapes(kind: str, shapes: tuple) -> bool:
    if kind == "affine":
        return len(shapes) == 1 and len(shapes[0]) == 1 and shapes[0][0] >= 2
    if len(shapes) != 4 or len(shapes[0]) != 2:
        return False
    width = shapes[0][1]
    return shapes[1:] == ((width,), (width,), ())


def trivial_quantile_model(levels: tuple[float, float], context_dim: int = 1) -> QuantilePairModel:
    """Constant-zero quantile pair, used by degenerate calibration paths."""
    w = np.zeros(context_dim + 1)
    return QuantilePairModel("affine", (w,), (w.copy(),), levels)


def fit_quantile_pair(
    train: RsDataset,
    cfg: QuantileTrainConfig,
    params: PacParams,
    rng: np.random.Generator | None = None,
) -> QuantilePairModel:
    """Fit the lower and upper conditional quantiles on accepted pairs.

    The levels are ``(params.eps_lo, params.eps_up)``. The network model
    requires a stream for its initialization; the affine model is fully
    deterministic.
    """
    if len(train) < 2:
        raise ValueError("insufficient training data: need at least 2 samples")
    eps_lo, eps_up = params.eps_lo, params.eps_up
    for level in (eps_lo, eps_up):
        if not 0.0 < level < 1.0:
            raise ValueError("quantile levels must lie in (0, 1)")
    x = _as_context_matrix(train.contexts)
    y = np.asarray(train.rewards, dtype=float)
    if cfg.model_kind == "affine":
        x1 = np.hstack([np.ones((x.shape[0], 1)), x])
        w_lo = _fit_affine(x1, y, eps_lo)
        w_up = _fit_affine(x1, y, eps_up)
        losses = tuple(
            np.array([_pinball_mean(y - x1 @ w, level)])
            for w, level in ((w_lo, eps_lo), (w_up, eps_up))
        )
        return QuantilePairModel("affine", (w_lo,), (w_up,), (eps_lo, eps_up), losses)
    if rng is None:
        raise ValueError("the network model requires an rng for initialization")
    p_lo, losses_lo = _fit_mlp(x, y, eps_lo, cfg.learning_rate, cfg.epochs, cfg.hidden_width, rng)
    p_up, losses_up = _fit_mlp(x, y, eps_up, cfg.learning_rate, cfg.epochs, cfg.hidden_width, rng)
    return QuantilePairModel(
        "mlp", tuple(p_lo), tuple(p_up), (eps_lo, eps_up), (losses_lo, losses_up)
    )
