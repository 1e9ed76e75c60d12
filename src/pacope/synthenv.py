"""Synthetic contextual-bandit environment with analytic oracles.

The environment: contexts ``S ~ N(0, 4)``, behavior actions
``A | s ~ N(s/4, 4)``, target actions ``A | s ~ N(s/4, 1)``, and a
two-component Gaussian-mixture reward sharing the mean ``s + a``:
``R | s, a ~ 0.2 N(s+a, 1) + 0.8 N(s+a, 16)`` (second Gaussian parameter is
the variance throughout).

Because the mixture components share the mean and the action is Gaussian, the
target-conditional reward law is available in closed form as a Gaussian
convolution: with target action variance ``v_e`` and slope ``t``,
``R | s ~ sum_j w_j N(s (1 + t), v_e + v_j)``. For the default parameters that
is ``0.2 N(1.25 s, 2) + 0.8 N(1.25 s, 17)``. This exact law powers the oracle
quantiles, the oracle prediction interval, and the distributional tests; no
nested sampling is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core import (
    GaussianLinearPolicy,
    LoggedDataset,
    PredictionInterval,
    TargetDataset,
    _as_context_matrix,
)

__all__ = [
    "SynthEnvSpec",
    "DEFAULT_ENV",
    "TheoremConstants",
    "sample_logged",
    "sample_target",
    "target_reward_cdf",
    "oracle_quantile",
    "oracle_quantiles",
    "oracle_interval",
    "theorem_constants",
]


@dataclass(frozen=True)
class SynthEnvSpec:
    """Parameters of the synthetic environment (all variances, not sigmas)."""

    context_variance: float = 4.0
    behavior_slope: float = 0.25
    behavior_variance: float = 4.0
    target_slope: float = 0.25
    target_variance: float = 1.0
    mixture_weights: tuple[float, ...] = (0.2, 0.8)
    component_variances: tuple[float, ...] = (1.0, 16.0)

    def __post_init__(self) -> None:
        if len(self.mixture_weights) != len(self.component_variances):
            raise ValueError("mixture weights and component variances must align")
        if abs(sum(self.mixture_weights) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if any(w < 0 for w in self.mixture_weights):
            raise ValueError("mixture weights must be nonnegative")
        if any(v <= 0 for v in self.component_variances):
            raise ValueError("component variances must be positive")
        for name in ("context_variance", "behavior_variance", "target_variance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def behavior_policy(self) -> GaussianLinearPolicy:
        return GaussianLinearPolicy(
            np.array([self.behavior_slope]), 0.0, self.behavior_variance
        )

    def target_policy(self) -> GaussianLinearPolicy:
        return GaussianLinearPolicy(
            np.array([self.target_slope]), 0.0, self.target_variance
        )

    def target_component_variances(self) -> tuple[float, ...]:
        """Variances of the target-conditional mixture components."""
        return tuple(self.target_variance + v for v in self.component_variances)


DEFAULT_ENV = SynthEnvSpec()


def _sample_mixture_noise(n: int, rng: np.random.Generator, env: SynthEnvSpec) -> np.ndarray:
    comp = rng.choice(len(env.mixture_weights), size=n, p=np.asarray(env.mixture_weights))
    sigmas = np.sqrt(np.asarray(env.component_variances))[comp]
    return sigmas * rng.standard_normal(n)


def sample_logged(
    n: int, rng: np.random.Generator, env: SynthEnvSpec = DEFAULT_ENV
) -> LoggedDataset:
    """Draw ``n`` i.i.d. logged triples under the behavior policy."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return LoggedDataset.empty(1)
    s = math.sqrt(env.context_variance) * rng.standard_normal(n)
    contexts = s.reshape(-1, 1)
    actions = env.behavior_policy().sample(contexts, rng)
    rewards = s + actions + _sample_mixture_noise(n, rng, env)
    return LoggedDataset(contexts, actions, rewards)


def sample_target(
    m: int, rng: np.random.Generator, env: SynthEnvSpec = DEFAULT_ENV
) -> TargetDataset:
    """Draw ``m`` i.i.d. ``(context, reward)`` pairs from the target joint law."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return TargetDataset(np.empty((0, 1)), np.empty(0))
    s = math.sqrt(env.context_variance) * rng.standard_normal(m)
    contexts = s.reshape(-1, 1)
    actions = env.target_policy().sample(contexts, rng)
    rewards = s + actions + _sample_mixture_noise(m, rng, env)
    return TargetDataset(contexts, rewards)


def target_reward_cdf(
    r: np.ndarray | float, s: float, env: SynthEnvSpec = DEFAULT_ENV
) -> np.ndarray | float:
    """Exact CDF of ``R | s`` under the target policy (Gaussian convolution)."""
    r_arr = np.asarray(r, dtype=float)
    mean = (1.0 + env.target_slope) * s
    out = np.zeros_like(r_arr, dtype=float)
    for w, v in zip(env.mixture_weights, env.target_component_variances()):
        out = out + w * ndtr((r_arr - mean) / math.sqrt(v))
    return out if r_arr.ndim else float(out)


_BRACKET_HALF_WIDTH = 40.0


def oracle_quantile(
    s: float, q: float, env: SynthEnvSpec = DEFAULT_ENV, tol: float = 1e-8
) -> float:
    """Quantile of the exact target-conditional reward law, by bisection.

    The bracket is ``mean(s) +- 40`` (beyond nine standard deviations of the
    widest default component) and doubles until it straddles the root. The CDF
    is strictly increasing, so bisection to absolute tolerance ``tol``
    converges unconditionally.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    mean = (1.0 + env.target_slope) * s
    half = _BRACKET_HALF_WIDTH
    lo, hi = mean - half, mean + half
    while target_reward_cdf(lo, s, env) > q:
        half *= 2.0
        lo = mean - half
    while target_reward_cdf(hi, s, env) < q:
        half *= 2.0
        hi = mean + half
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if target_reward_cdf(mid, s, env) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_quantiles(
    contexts: np.ndarray, q: float, env: SynthEnvSpec = DEFAULT_ENV, tol: float = 1e-8
) -> np.ndarray:
    """Vectorized :func:`oracle_quantile` over an array of contexts."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ctx = _as_context_matrix(contexts)[:, 0]
    mean = (1.0 + env.target_slope) * ctx
    # The centered law is context-free: solve once at s = 0 and shift.
    centered = oracle_quantile(0.0, q, env, tol)
    return mean + centered


def oracle_interval(
    s: float, eps_lo: float, eps_up: float, env: SynthEnvSpec = DEFAULT_ENV
) -> PredictionInterval:
    """Ideal interval ``[q_lo(s), q_up(s)]`` under the exact target law."""
    return PredictionInterval(
        oracle_quantile(s, eps_lo, env), oracle_quantile(s, eps_up, env)
    )


@dataclass(frozen=True)
class TheoremConstants:
    """Finite-sample constants of the coverage-frequency bounds.

    ``c_upper`` scales the ``1/sqrt(n)`` slack above the nominal confidence in
    the upper frequency bound; ``c_band`` the slack below it in the two-sided
    band bound at half-width ``delta_eps``. ``m0`` is the smallest calibration
    size at which the binomial cutoff exceeds -1, ``m1`` its band analogue.
    """

    b: float
    gamma: float
    epsilon: float
    delta: float
    delta_eps: float
    m0: float
    m1: float
    c_upper: float
    c_band: float


def theorem_constants(
    b: float, gamma: float, epsilon: float, delta: float, delta_eps: float
) -> TheoremConstants:
    """Evaluate the displayed constants of the frequency bounds.

    ``m0 = log(delta) / log(1 - epsilon)``;
    ``c_upper = 7 B / sqrt(gamma eps (1-eps)) + sqrt(floor(m0/gamma) B) + B/2``;
    ``m1 = max(m0, log(delta) / (-2 delta_eps^2))``; and ``c_band`` adds the
    band-width penalty ``(sqrt(-2 log delta) + 1) B / (2 delta_eps sqrt(gamma))``
    with the tail term weighted by ``1 - delta``.
    """
    if not (b >= 1.0 and math.isfinite(b)):
        raise ValueError("b must be finite and >= 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < delta_eps < epsilon:
        raise ValueError("delta_eps must lie in (0, epsilon)")
    m0 = math.log(delta) / math.log(1.0 - epsilon)
    c_upper = (
        7.0 * b / math.sqrt(gamma * epsilon * (1.0 - epsilon))
        + math.sqrt(math.floor(m0 / gamma) * b)
        + b / 2.0
    )
    m1 = max(m0, math.log(delta) / (-2.0 * delta_eps**2))
    eps_band = epsilon - delta_eps
    c_band = (
        7.0 * b / math.sqrt(gamma * eps_band * (1.0 - eps_band))
        + (math.sqrt(-2.0 * math.log(delta)) + 1.0) * b / (2.0 * delta_eps * math.sqrt(gamma))
        + (1.0 - delta) * (math.sqrt(math.floor(m1 / gamma) * b) + b / 2.0)
    )
    return TheoremConstants(
        b=b,
        gamma=gamma,
        epsilon=epsilon,
        delta=delta,
        delta_eps=delta_eps,
        m0=m0,
        m1=m1,
        c_upper=c_upper,
        c_band=c_band,
    )
