"""Conditional-quantile estimation of reward given context via pinball loss.

The model is affine in the context, and its fit is exact and deterministic.
Affine pinball regression is the linear program of regression quantiles
(Koenker & Bassett 1978). Each level is solved by the Barrodale-Roberts
simplex in the form Koenker & d'Orey (1987) give it for regression
quantiles: the fit moves from vertex to vertex of the loss, where it passes
through as many rows as the design has rank, and each pivot steps along an
edge to the weighted median of the residual breakpoints, moving the
residuals along it and updating the basis inverse by rank one; a fresh
inverse confirms the last vertex. It starts from the least-squares fit
shifted to the level's quantile of its residuals, a few pivots from the
optimum. The pivots see the rewards moved by distinct offsets of at most
``_LP_PERTURBATION`` of their mean magnitude, so tied rewards make no
degenerate vertex; the last vertex is then fitted to the true rewards and
certified before it is returned: its dual lies in the unit box, and its
duality gap and equality residual pass the stop rule ``_LP_GAP_TOL``.
Quantile crossing is repaired pointwise at evaluation time: wherever the
fitted lower quantile exceeds the upper one, both are replaced by their
midpoint, so the induced interval family stays well-formed. The model is
written to and read from disk only as part of the predictor file, whose
format lives in ``calibrate.CalibratedPredictor.dump`` and ``load``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PacParams, _as_context_matrix

__all__ = [
    "QuantilePairModel",
    "fit_quantile_pair",
    "trivial_quantile_model",
]


# A fit is accepted once its dual lies in the unit box, and the duality gap of
# the mean pinball loss, in units of the mean absolute reward, and the equality
# residual of the LP, in units of sqrt(n), are both at most _LP_GAP_TOL. It
# raises if reaching a box-feasible dual takes more than _LP_MAX_PIVOTS pivots.
_LP_GAP_TOL = 1e-10
_LP_MAX_PIVOTS = 200
# The pivots run on rewards moved by distinct offsets of at most this many
# times the mean absolute reward, so that no vertex is degenerate.
_LP_PERTURBATION = 1e-12
# The starting basis is picked among this many rows per unit of design rank.
_LP_START_ROWS = 8
# A row whose residual moves by at most this much per unit step of the leaving
# row (times its loss slope) lies on the edge: it is no breakpoint of it.
_LP_EDGE_TOL = 1e-12
_LP_PIVOT_TOL = 1e-6  # a smaller pivot element takes a fresh basis inverse


def _fit_levels(
    contexts: np.ndarray, y: np.ndarray, levels: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact affine quantile regression weights at each of ``levels``, one row each.

    The design (an intercept, then the contexts) is replaced by an orthonormal
    basis ``q`` of its column space, so a rank-deficient design gets the
    minimum-norm weights of its optimal fitted values ``q theta``. Each level's
    basis comes from ``_simplex``, run on the rewards plus distinct offsets
    of at most ``_LP_PERTURBATION`` mean absolute rewards (a Weyl sequence in
    the row index): rows with equal rewards and equal contexts then no longer
    tie, so no vertex is degenerate and discrete rewards take as few pivots
    as continuous ones. The fit through that basis is then taken on the true
    rewards and certified on Koenker's dual of the pinball program,
    ``max y'a  s.t.  q'a = (1 - level) q'1,  0 <= a <= 1``: the dual ``a`` of
    the basis must lie in the box, and the duality gap and equality residual
    must pass the stop rule of ``_LP_GAP_TOL``, or ``ValueError`` names the
    level. Returns the weights and the duals ``a``, one row per level.
    """
    n, lev = y.shape[0], np.array(levels, dtype=float)[:, None]
    scale = float(np.abs(y).sum()) / n
    if scale == 0.0:
        return np.zeros((len(levels), contexts.shape[1] + 1)), np.repeat(1.0 - lev, n, axis=1)
    q, sv, vt = _basis(contexts)
    # The intercept column is q sv vt[:, 0], so q'1 = sv vt[:, 0].
    ones, y_sum = sv * vt[:, 0], float(y.sum())
    offsets = np.arange(n) * 0.6180339887498949 % 1.0 - 0.5
    y_moved = np.add(y, np.multiply(offsets, _LP_PERTURBATION * scale, out=offsets), out=offsets)
    # Every level starts from the least-squares residual of the moved rewards.
    ls_resid = y_moved - q @ (q.T @ y_moved)
    weights, duals = np.empty((len(levels), vt.shape[1])), np.empty((len(levels), n))
    for level, w, a in zip(levels, weights, duals):
        basis = _simplex(q, y_moved, level, a, ls_resid)
        theta = np.linalg.solve(q[basis], y[basis])
        resid = y - q @ theta
        loss = level * float(resid.sum()) - float(np.minimum(resid, 0.0, out=resid).sum())
        gap = (loss - float(y @ a) + (1.0 - level) * y_sum) / (n * scale)
        residual = float(np.abs((1.0 - level) * ones - q.T @ a).max())
        if not (0.0 <= a.min() and a.max() <= 1.0 and gap <= _LP_GAP_TOL
                and residual <= _LP_GAP_TOL * math.sqrt(n)):
            raise ValueError(f"affine quantile fit at level {level}: the final basis fails its "
                             f"certificate (relative duality gap {gap:.3g}, residual {residual:.3g})")
        w[:] = vt.T @ (theta / sv)
    return weights, duals


def _simplex(q: np.ndarray, y: np.ndarray, level: float, a: np.ndarray,
             ls_resid: np.ndarray) -> np.ndarray:
    """The rows of one level's optimal basis; its dual goes into ``a``.

    A vertex is a basis of ``rank`` rows that the fit ``q theta`` passes
    through. Every other row holds a sign, kept in ``a`` as its loss slope
    ``psi`` (``level`` above, ``level - 1`` below the fit): its residual's sign,
    or for a zero residual the sign the last step left it with. The basis
    rows' duals solve the equality ``q'a = (1 - level) q'1`` with ``a = 1`` on
    the rows above and ``0`` below, and the vertex is optimal once they lie in
    ``[0, 1]``. Otherwise the basis row furthest outside the box leaves: its
    fitted value moves the way the loss falls, and the other basis rows stay
    on the fit. The loss is piecewise linear along that edge, and its slope
    rises by ``|move|`` at each row whose residual reaches zero; the step
    ends at the weighted median of the breakpoints, where the slope turns
    non-negative, read off a sorted prefix of them grown until it holds the
    median, so a pivot is O(n). That row enters the basis, the rows passed
    on the way change sign, and equal breakpoints (zero residuals are
    breakpoints at the start) are passed in row order. The residuals move
    along the edge by the step and the basis inverse by a rank-one update, or
    is taken afresh after a pivot element below ``_LP_PIVOT_TOL``; a vertex
    the updates call optimal is confirmed, and its duals taken, on a fresh
    inverse. The start is the least-squares fit (residuals ``ls_resid``)
    shifted to the level's quantile of its residuals, and the first basis is
    ``rank`` independent rows among the ``_LP_START_ROWS * rank`` nearest it.
    """
    n, rank = q.shape
    k = min(int(level * n), n - 1)
    near = ls_resid - np.partition(ls_resid, k)[k]
    m = min(_LP_START_ROWS * rank, n) - 1
    np.abs(near, out=near)
    basis = _spanning_rows(q, np.flatnonzero(near <= np.partition(near, m)[m]))
    if basis is None:  # the nearest rows do not span the column space
        basis = _spanning_rows(q, np.arange(n))
    inv = np.linalg.inv(q[basis])
    resid = np.subtract(y, np.matmul(q, inv @ y[basis], out=near), out=near)
    psi, move, fresh, pivots = np.subtract(level, resid <= 0.0, out=a), np.empty(n), True, 0
    # A box violation within tol keeps the clipped dual's residual in the stop rule.
    tol = _LP_GAP_TOL * math.sqrt(n) / (2 * rank)
    while True:
        psi[basis] = 0.0
        a_b = ((1.0 - level) - (q.T @ psi) @ inv).tolist()
        out = [max(-v, v - 1.0) for v in a_b]
        j = out.index(max(out))
        if -tol <= a_b[j] <= 1.0 + tol:
            if fresh:
                break
            inv, fresh = np.linalg.inv(q[basis]), True  # confirm the vertex on a fresh inverse
            continue
        if pivots == _LP_MAX_PIVOTS:
            raise ValueError(f"affine quantile fit at level {level}: no optimal basis "
                             f"within {_LP_MAX_PIVOTS} pivots")
        pivots += 1
        # Along the edge the loss falls at rate ``need`` until breakpoints stop it.
        sign, need = (1.0, -a_b[j]) if a_b[j] < 0.0 else (-1.0, a_b[j] - 1.0)
        np.matmul(q, sign * inv[:, j], out=move)
        rows = (psi * move > _LP_EDGE_TOL).nonzero()[0]
        t = resid[rows]
        np.maximum(np.divide(t, move[rows], out=t), 0.0, out=t)
        size = 16
        while True:
            prefix = (t <= np.partition(t, size - 1)[size - 1]).nonzero()[0] \
                if size < t.size else np.arange(t.size)
            prefix = prefix[t[prefix].argsort(kind="stable")]
            stop = int(np.abs(move[rows[prefix]]).cumsum().searchsorted(need))
            if stop < prefix.size:
                break
            if prefix.size == t.size:
                raise ValueError(f"affine quantile fit at level {level}: the loss falls "
                                 "without bound along an edge")
            size *= 4
        passed = rows[prefix[:stop]]
        psi[passed] = level - (psi[passed] > 0.0)  # exactly level - 1 where it was level
        psi[basis[j]] = level - 1.0 if sign > 0.0 else level
        basis[j] = enter = rows[prefix[stop]]
        resid -= np.multiply(move, t[prefix[stop]], out=move)
        u = q[enter] @ inv  # Sherman-Morrison: row j of the basis is now q[enter]
        element, u[j] = u[j], u[j] - 1.0
        fresh = abs(element) < _LP_PIVOT_TOL
        inv = np.linalg.inv(q[basis]) if fresh else inv - (inv[:, j] / element)[:, None] * u
    np.greater(psi, 0.0, out=a)
    a[basis] = [min(max(v, 0.0), 1.0) for v in a_b]
    return basis


def _spanning_rows(q: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
    """``rank`` of ``rows`` whose rows of ``q`` span its columns, by pivoted
    Gram-Schmidt: each is the row of largest remainder once those taken are
    projected out. ``None`` once a remainder's norm falls below 1e-8 of the
    first's."""
    rest, taken, floor = q[rows], [], 0.0
    while True:
        norms = np.add.reduce(rest * rest, axis=1)
        i = int(norms.argmax())
        if norms[i] <= floor:
            return None
        taken.append(i)
        if len(taken) == q.shape[1]:
            return rows[taken]
        floor = floor or 1e-16 * norms[i]
        rest = rest - (rest @ rest[i])[:, None] * (rest[i] / norms[i])


def _basis(contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(q, sv, vt)``: the thin SVD of the affine design (an intercept column,
    then the contexts) cut to its numerical rank."""
    design = np.concatenate([np.ones((contexts.shape[0], 1)), contexts], axis=1)
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    rank = int((sv > sv[0] * max(u.shape[0], vt.shape[1]) * np.finfo(float).eps).sum())
    return np.ascontiguousarray(u[:, :rank]), sv[:rank], vt[:rank]


@dataclass(frozen=True)
class QuantilePairModel:
    """Fitted lower/upper affine conditional-quantile functions.

    ``w_lo`` / ``w_up`` are the weight vectors, intercept first, of the
    quantiles at the levels ``(eps_lo, eps_up)`` of the ``PacParams`` they
    were fitted at. Evaluation applies the midpoint crossing fix, so
    ``quantiles`` always returns ``lo <= up`` pointwise.
    """

    w_lo: np.ndarray
    w_up: np.ndarray

    @property
    def context_dim(self) -> int:
        """Dimension of the contexts the model takes."""
        return int(np.shape(self.w_lo)[0]) - 1

    def quantiles(self, contexts) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate ``(q_lo, q_up)`` with the midpoint crossing fix applied.

        The band is taken from elementwise products, not a matrix-vector
        product, which may round a row differently by batch size: so a row's
        band does not depend on the other rows of its batch.
        """
        ctx = _as_context_matrix(contexts)
        if ctx.shape[1] != self.context_dim:
            raise ValueError(
                f"contexts have dimension {ctx.shape[1]}, the model takes {self.context_dim}"
            )
        lo = self.w_lo[0] + (ctx * self.w_lo[1:]).sum(axis=1)
        up = self.w_up[0] + (ctx * self.w_up[1:]).sum(axis=1)
        crossed = lo > up
        if np.any(crossed):
            mid = 0.5 * (lo[crossed] + up[crossed])
            lo[crossed] = mid
            up[crossed] = mid
        return lo, up


def trivial_quantile_model(context_dim: int = 1) -> QuantilePairModel:
    """Constant-zero quantile pair, used by degenerate calibration paths."""
    w = np.zeros(context_dim + 1)
    return QuantilePairModel(w, w.copy())


def fit_quantile_pair(train, params: PacParams) -> QuantilePairModel:
    """Fit the lower and upper conditional quantiles on ``(context, reward)`` pairs.

    ``train`` is any dataset with ``contexts`` and ``rewards``: the accepted
    pairs of rejection sampling, or a logged dataset. The levels are
    ``(params.eps_lo, params.eps_up)``; the fit is deterministic.
    """
    if len(train) < 2:
        raise ValueError("insufficient training data: need at least 2 samples")
    ctx = _as_context_matrix(train.contexts)
    y = np.asarray(train.rewards, dtype=float)
    (w_lo, w_up), _ = _fit_levels(ctx, y, (params.eps_lo, params.eps_up))
    return QuantilePairModel(w_lo, w_up)
