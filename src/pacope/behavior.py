"""Behavior-policy estimation for the unknown-policy setting.

When the logging policy is unknown it is estimated on a first data split and
the density-ratio weights are formed against the estimate.
:func:`estimate_behavior` is the one place that fits or selects the policy.
Given a ``finite_class``, it selects by maximum likelihood over that class
(total log density, ties broken by list order); without one, it fits a
parametric Gaussian (affine mean, constant variance, with the fitted
variance clamped ``VARIANCE_MARGIN`` above the target policy's variance so
the downstream weight bound exists). A known policy is a one-member class.
:func:`rs_split_unknown` is the one home of the pipeline's sampling stage:
split, estimate, bound, and rejection-sample both halves.
:func:`pacopp_unknown` hands its ``RsSplit`` to
:func:`calibrate.calibrate_split`.

The weight-estimation error against the true policy is a synthetic-mode
diagnostic, in closed form over the action: :func:`synthenv.weight_error`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._gd import fit_gaussian_affine
from .calibrate import CalibratedPredictor, calibrate_split
from .core import (
    GaussianLinearPolicy,
    LoggedDataset,
    PacParams,
    StochasticPolicy,
    split_dataset,
)
from .rejection import RsDataset, RsSplit, gaussian_ratio_bound, rejection_sample

# The Gaussian fit's variance floor is pe.variance * (1 + VARIANCE_MARGIN).
VARIANCE_MARGIN = 0.05

__all__ = [
    "VARIANCE_MARGIN",
    "FinitePolicyClass",
    "finite_policy_class",
    "mle_policy",
    "estimate_behavior",
    "rs_split_unknown",
    "pacopp_unknown",
]


@dataclass(frozen=True)
class FinitePolicyClass:
    """Non-empty candidate set with a uniform bound on the target ratio.

    ``ratio_bound`` upper-bounds ``sup_(s,a) pi_e(a|s) / pi(a|s)`` for every
    member simultaneously.
    """

    policies: tuple[StochasticPolicy, ...]
    ratio_bound: float

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("policy class must be non-empty")
        if not (math.isfinite(self.ratio_bound) and self.ratio_bound >= 1.0):
            raise ValueError("ratio_bound must be finite and >= 1")
        object.__setattr__(self, "policies", tuple(self.policies))

    def __len__(self) -> int:
        return len(self.policies)


def finite_policy_class(policies, pe: GaussianLinearPolicy, probe_contexts) -> FinitePolicyClass:
    """Build a class with its uniform ratio bound from Gaussian members.

    The bound is the maximum over members of the closed-form per-context
    supremum on the probe grid.
    """
    members = tuple(policies)
    b_pi = max(gaussian_ratio_bound(pe, member, probe_contexts) for member in members)
    return FinitePolicyClass(members, b_pi)


def mle_policy(pclass: FinitePolicyClass, d1: LoggedDataset) -> StochasticPolicy:
    """Class member maximizing the total conditional log density of the data.

    Ties are broken by list order; the empty dataset scores every member zero
    and therefore returns the first. A member putting zero density on any
    logged pair scores minus infinity; if all members do, this is an error.
    """
    totals = np.array([np.sum(p.log_density(d1.contexts, d1.actions)) for p in pclass.policies])
    if np.all(np.isneginf(totals)):
        raise ValueError("every policy-class member has zero likelihood on the data")
    return pclass.policies[int(np.argmax(totals))]


def estimate_behavior(
    d1: LoggedDataset, pe: GaussianLinearPolicy, finite_class: FinitePolicyClass | None = None
) -> tuple[GaussianLinearPolicy, float]:
    """Fit or select the behavior policy on the training half ``d1``.

    Returns ``(policy, raw_variance)``. Without a finite class the policy is
    the affine-mean constant-variance Gaussian MLE, computed exactly
    (least-squares mean, minimum-norm when all contexts are equal, and the
    mean squared residual as variance); its variance is clamped to at
    least ``pe.variance * (1 + VARIANCE_MARGIN)``, because the
    rejection-sampling weight is bounded only when the estimated behavior
    variance exceeds the target's. ``raw_variance`` is the variance before the
    clamp, so the clamp fired iff ``raw_variance < policy.variance``. With a
    class, its maximum-likelihood member is returned unclamped, with its own
    variance as ``raw_variance``. The estimate must be Gaussian: automatic
    weight bounds exist only for Gaussian policies.
    """
    if finite_class is None:
        if len(d1) < 2:
            raise ValueError("insufficient data: need at least 2 samples")
        x1 = np.hstack([np.ones((len(d1), 1)), d1.contexts])
        w, raw_variance = fit_gaussian_affine(x1, d1.actions)
        floor = pe.variance * (1.0 + VARIANCE_MARGIN)
        return GaussianLinearPolicy(w[1:], float(w[0]), max(raw_variance, floor)), raw_variance
    policy = mle_policy(finite_class, d1)
    if not isinstance(policy, GaussianLinearPolicy):
        raise ValueError("automatic weight bounds require a Gaussian behavior estimate")
    return policy, policy.variance


def rs_split_unknown(
    d: LoggedDataset,
    pe: GaussianLinearPolicy,
    gamma: float,
    rng: np.random.Generator,
    finite_class: FinitePolicyClass | None = None,
) -> RsSplit:
    """Sampling stage of the unknown-policy pipeline.

    The logged data is split *before* rejection sampling: the estimator
    (:func:`estimate_behavior`) sees only the training half, and both halves
    are then rejection-sampled with the estimated ratio, bounded over every
    logged context. An empty dataset, or a training half too small for the
    Gaussian fit, gives an empty split with no estimate and bound 1. An
    estimate whose ratio bound overflows to ``inf`` gives an empty split too,
    since every acceptance probability is then 0. A target policy of another
    context dimension raises ``ValueError``, rows or none.

    Stream consumption order: acceptance variates for the training half, then
    for the calibration half (the estimators draw nothing).
    """
    pe.mean(d.contexts[:0])  # raises on a context-dimension mismatch, rows or none
    d1, d2 = split_dataset(d, gamma)
    if len(d) == 0 or (finite_class is None and len(d1) < 2):
        empty = RsDataset.empty(d.context_dim)
        return RsSplit(empty, empty, violations=0, bound=1.0)
    pbhat, raw_variance = estimate_behavior(d1, pe, finite_class)
    bound = gaussian_ratio_bound(pe, pbhat, d.contexts)
    rs1 = rejection_sample(d1, pe, pbhat, bound, rng)
    rs2 = rejection_sample(d2, pe, pbhat, bound, rng)
    return RsSplit(
        rs1, rs2, violations=rs1.n_violations + rs2.n_violations, bound=bound,
        behavior=pbhat, variance_clamped=raw_variance < pbhat.variance,
    )


def pacopp_unknown(
    d: LoggedDataset,
    pe: GaussianLinearPolicy,
    params: PacParams,
    rng: np.random.Generator,
    finite_class: FinitePolicyClass | None = None,
) -> CalibratedPredictor:
    """Full pipeline with an estimated behavior policy.

    :func:`rs_split_unknown` at ``params.gamma``, then
    :func:`calibrate.calibrate_split`. A split too small to calibrate (see
    :func:`rs_split_unknown`) gives the trivial predictor of the data's
    context dimension.
    """
    return calibrate_split(rs_split_unknown(d, pe, params.gamma, rng, finite_class), params)
