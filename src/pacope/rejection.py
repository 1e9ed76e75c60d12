"""Rejection sampling of logged data toward the target-policy joint law.

A logged triple ``(S_i, A_i, R_i)`` is kept when ``V_i <= w(S_i, A_i) / B``
with ``V_i ~ U[0, 1]`` drawn in dataset index order, where ``w = pi_e / pi_b``
is the policy density ratio and ``B`` an upper bound on its supremum. Kept
``(context, reward)`` pairs are, conditionally on their count, i.i.d. from the
target-policy joint distribution, so downstream calibration can treat them as
on-policy draws.

:class:`RsSplit` is the output of a pipeline's sampling stage: the
rejection-sampled training and calibration halves with the bound, the
violation count and, when the behavior policy was estimated, the estimate.
``calibrate.calibrate_split`` takes it as its one input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GaussianLinearPolicy, LoggedDataset, StochasticPolicy, _as_context_matrix, _train_size

__all__ = [
    "RsDataset",
    "RsSplit",
    "gaussian_ratio_bound",
    "rejection_sample",
]


def gaussian_ratio_bound(
    pe: GaussianLinearPolicy,
    pb: GaussianLinearPolicy,
    context_probe: np.ndarray,
) -> float:
    """Upper bound on ``sup_(s,a) pi_e(a|s) / pi_b(a|s)`` for Gaussian policies.

    For a fixed context the ratio of two Gaussian action densities with
    ``v_e < v_b`` attains the closed-form supremum
    ``sqrt(v_b / v_e) * exp((mu_e(s) - mu_b(s))^2 / (2 (v_b - v_e)))``. The
    returned bound is the maximum of that expression over the probe contexts,
    inflated by a 1.1 safety factor when the mean functions differ anywhere on
    the probe grid (the per-context supremum then varies with ``s``); it is
    exact when the means coincide on every probe.

    Raises ``ValueError`` when ``v_e >= v_b``, unless the policies are
    identical (in which case the ratio is identically one and ``B = 1``).
    Returns ``inf``, without an overflow warning, when the supremum exceeds
    the float range (as for a wild policy estimate from a handful of samples).
    """
    probe = _as_context_matrix(context_probe)
    if probe.shape[0] == 0:
        raise ValueError("context probe must be non-empty")
    mu_e = pe.mean(probe)
    mu_b = pb.mean(probe)
    means_coincide = bool(np.all(mu_e == mu_b))
    if pe.variance >= pb.variance:
        if means_coincide and pe.variance == pb.variance:
            return 1.0
        raise ValueError(
            "weight unbounded: target policy variance must be smaller than "
            "behavior policy variance"
        )
    gap = pb.variance - pe.variance
    with np.errstate(over="ignore"):
        per_context = math.sqrt(pb.variance / pe.variance) * np.exp(
            (mu_e - mu_b) ** 2 / (2.0 * gap)
        )
    bound = float(np.max(per_context))
    if not means_coincide:
        bound *= 1.1
    return max(bound, 1.0)


@dataclass(frozen=True)
class RsDataset:
    """Accepted ``(context, reward)`` pairs, in original dataset index order.

    ``source_indices`` are the positions of the accepted samples in the input
    dataset (strictly increasing). ``n_violations`` counts samples whose ratio
    exceeded the stated bound before clamping.
    """

    contexts: np.ndarray
    rewards: np.ndarray
    source_indices: np.ndarray
    n_violations: int = 0

    def __post_init__(self) -> None:
        contexts = _as_context_matrix(self.contexts)
        rewards = np.asarray(self.rewards, dtype=float).reshape(-1)
        indices = np.asarray(self.source_indices, dtype=int).reshape(-1)
        if not (contexts.shape[0] == rewards.shape[0] == indices.shape[0]):
            raise ValueError("contexts, rewards, and source_indices must have equal length")
        if indices.size > 1 and not np.all(np.diff(indices) > 0):
            raise ValueError("source_indices must be strictly increasing")
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "source_indices", indices)

    def __len__(self) -> int:
        return self.contexts.shape[0]

    @staticmethod
    def empty(context_dim: int) -> "RsDataset":
        return RsDataset(np.empty((0, context_dim)), np.empty(0), np.empty(0, dtype=int))

    def split(self, gamma: float) -> tuple["RsDataset", "RsDataset"]:
        """Training prefix / calibration tail split, by the rule of ``split_dataset``."""
        cut = _train_size(len(self), gamma)
        return (
            RsDataset(self.contexts[:cut], self.rewards[:cut], self.source_indices[:cut], self.n_violations),
            RsDataset(self.contexts[cut:], self.rewards[cut:], self.source_indices[cut:], self.n_violations),
        )


@dataclass(frozen=True)
class RsSplit:
    """The sampling stage of a pipeline: rejection-sampled training and calibration halves.

    ``violations`` counts ratios above ``bound`` over the whole sampling pass.
    ``behavior`` is the estimated behavior policy, ``None`` when no policy was
    estimated (the policy was known, or the data was too small to fit it);
    ``variance_clamped`` records whether the estimate's variance was clamped.
    """

    train: RsDataset
    cal: RsDataset
    violations: int
    bound: float
    behavior: StochasticPolicy | None = None
    variance_clamped: bool = False

    @property
    def n_rs(self) -> int:
        return len(self.train) + len(self.cal)

    @property
    def degenerate(self) -> bool:
        """Too small to calibrate: fewer than two training pairs, or no calibration pairs."""
        return len(self.train) < 2 or len(self.cal) == 0


def rejection_sample(
    d: LoggedDataset,
    pe: StochasticPolicy,
    pb: StochasticPolicy,
    bound: float,
    rng: np.random.Generator,
) -> RsDataset:
    """Keep sample ``i`` iff ``V_i <= w(S_i, A_i) / B``, preserving index order.

    The ratio is ``w = pe.density / pb.density`` with the conventions
    ``0 / 0 = 0`` and ``x / 0 = inf``. One uniform variate is consumed per
    sample, in dataset index order, so the acceptance pattern is a
    deterministic function of the stream. Ratios above the bound are clamped
    to acceptance probability one and counted in ``n_violations`` rather than
    raising: a violated bound degrades the guarantee but should not abort a
    Monte Carlo sweep. An infinite bound makes every acceptance probability 0,
    so nothing is accepted and no variate is drawn. ``bound`` must be at
    least 1.
    """
    if not bound >= 1.0:
        raise ValueError("weight bound must be >= 1")
    n = len(d)
    if n == 0 or math.isinf(bound):
        return RsDataset.empty(d.context_dim)
    v = rng.uniform(size=n)
    num = np.asarray(pe.density(d.contexts, d.actions), dtype=float)
    den = np.asarray(pb.density(d.contexts, d.actions), dtype=float)
    ratios = np.zeros_like(num)
    pos = den > 0.0
    ratios[pos] = num[pos] / den[pos]
    ratios[(~pos) & (num > 0.0)] = math.inf
    accept_prob = ratios / bound
    violations = int(np.count_nonzero(accept_prob > 1.0))
    accept_prob = np.minimum(accept_prob, 1.0)
    keep = v <= accept_prob
    idx = np.flatnonzero(keep)
    return RsDataset(d.contexts[idx], d.rewards[idx], idx, violations)
