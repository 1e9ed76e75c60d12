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
quantiles (:func:`oracle_quantiles`, from which the oracle interval
``[q_lo(s), q_up(s)]`` is built), the exact miscoverage and length of an
affine interval map (:func:`exact_interval_metrics`), and the distributional
tests; no nested sampling is involved.

The unknown-policy setting's weight error ``E |w_hat(S, A) - w(S, A)|`` needs
the true behavior policy, so it lives here too (:func:`weight_error`).

The functions that need ``scipy.special`` import it when called, so
``import pacope`` and the calibrate/predict path load no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .core import (
    GaussianLinearPolicy, LoggedDataset, _as_context_matrix, _gaussian_log_ratio, _superlevel_ends,
)

__all__ = [
    "SynthEnvSpec",
    "DEFAULT_ENV",
    "TheoremConstants",
    "sample_logged",
    "sample_target",
    "weight_error",
    "target_reward_cdf",
    "exact_interval_metrics",
    "oracle_quantiles",
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
        for name in ("mixture_weights", "component_variances"):  # tuples hash, lists do not
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
    # The draw of ``rng.choice(len(weights), size=n, p=weights)`` without its
    # argument checks: the same uniforms, the same labels, the same stream.
    cdf = np.cumsum(np.asarray(env.mixture_weights, dtype=float))
    cdf /= cdf[-1]
    comp = np.searchsorted(cdf, rng.random(n), side="right")
    sigmas = np.sqrt(np.asarray(env.component_variances))[comp]
    return sigmas * rng.standard_normal(n)


def _sample(
    n: int, rng: np.random.Generator, env: SynthEnvSpec, policy: GaussianLinearPolicy
) -> LoggedDataset:
    """Draw ``n`` i.i.d. triples with actions from ``policy``."""
    if n < 0:
        raise ValueError("the sample size must be nonnegative")
    contexts = (math.sqrt(env.context_variance) * rng.standard_normal(n)).reshape(-1, 1)
    actions = policy.sample(contexts, rng)
    rewards = contexts[:, 0] + actions + _sample_mixture_noise(n, rng, env)
    return LoggedDataset(contexts, actions, rewards)


def sample_logged(
    n: int, rng: np.random.Generator, env: SynthEnvSpec = DEFAULT_ENV
) -> LoggedDataset:
    """Draw ``n`` i.i.d. logged triples under the behavior policy."""
    return _sample(n, rng, env, env.behavior_policy())


def sample_target(
    m: int, rng: np.random.Generator, env: SynthEnvSpec = DEFAULT_ENV
) -> LoggedDataset:
    """Draw ``m`` i.i.d. triples under the target policy.

    Their ``(context, reward)`` pairs are draws from the target joint law.
    """
    return _sample(m, rng, env, env.target_policy())


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """32 nodes of a standard normal and their probability weights: the one rule for
    expectations over the context. numpy's rule is ``scipy.special.roots_hermitenorm``'s
    without importing ``scipy.linalg``; it is built once per process, on first use."""
    nodes, weights = hermegauss(32)
    return nodes, weights / weights.sum()


def weight_error(pbhat: GaussianLinearPolicy, env: SynthEnvSpec = DEFAULT_ENV) -> float:
    """Mean ``|w_hat - w|``, ``w_hat = pi_e / pbhat`` and ``w = pi_e / pi_b``, over the logging law.

    At a context ``pi_b |w_hat - w| = |g - pi_e|``, and ``g = pi_e pi_b / pbhat`` is a
    Gaussian in the action of mass ``K``. It exceeds ``pi_e`` on the set ``U`` where
    the quadratic ``log pi_b - log pbhat`` is positive, so the integral over the
    action is ``2 (g(U) - pi_e(U)) - (K - 1)``. :func:`_hermite_rule` takes the mean
    over the context, not exactly: the integrand has a kink where the quadratic
    gains its roots. ``inf`` when ``g`` does not normalize or ``K`` overflows.
    """
    from scipy.special import ndtr

    nodes, weights = _hermite_rule()
    ctx = math.sqrt(env.context_variance) * nodes.reshape(-1, 1)
    pe, pb = env.target_policy(), env.behavior_policy()
    (m_e, v_e), (m_b, v_b), (m_h, v_h) = ((pol.mean(ctx), pol.variance) for pol in (pe, pb, pbhat))
    # log pi_b - log pbhat = a x^2 + b x + c in the action x; t is g's
    # precision over pi_e's, and K = E[exp(a X^2 + b X + c)] for X ~ pi_e.
    a, b, c = _gaussian_log_ratio(m_b, v_b, m_h, v_h)
    t = 1.0 - 2.0 * a * v_e
    with np.errstate(all="ignore"):  # t <= 0 gives a NaN or infinite K
        k = np.exp(c + (b + a * m_e) * m_e + (b + 2.0 * a * m_e) ** 2 * v_e / (2.0 * t)
                   - 0.5 * np.log(t))
    if not np.all(np.isfinite(k)):
        return math.inf
    p, q = _superlevel_ends(a, b, c, np.zeros(1))
    # The masses of g / K and of pi_e on U, one row each.
    mean, sd = np.stack(((m_e + b * v_e) / t, m_e)), np.sqrt([[v_e / t], [v_e]])
    inside = ndtr((q[:, 0] - mean) / sd) - ndtr((p[:, 0] - mean) / sd)
    g_u, e_u = 1.0 - inside if a > 0.0 else inside
    return max(float(weights @ (k * (2.0 * g_u - 1.0) - 2.0 * e_u + 1.0)), 0.0)


def _mean_piecewise_affine(fn, knots, env: SynthEnvSpec = DEFAULT_ENV) -> float:
    """Exact mean of ``fn(S)``, ``S ~ N(0, context_variance)``, with ``fn`` affine between knots.

    ``fn`` maps contexts ``(m, 1)`` to ``m`` values; non-finite ``knots`` are ignored. It is
    evaluated once, at two points in each piece. On a piece ``(u, v)`` in standard units the
    mean of ``f0 + slope (Z - z0)`` is ``f0 P + slope (phi(u) - phi(v) - z0 P)`` with
    ``P = Phi(v) - Phi(u)``.
    """
    from scipy.special import ndtr

    sd = math.sqrt(env.context_variance)
    # A knot at 0 bounds every piece on one side at least.
    z = np.unique([k / sd for k in np.ravel(knots) if math.isfinite(k)] + [0.0])
    u, v = np.append(-math.inf, z), np.append(z, math.inf)
    # Probes a third and two thirds across each piece, an unbounded piece cut
    # to width 3 at its finite end.
    start = np.where(np.isfinite(u), u, v - 3.0)
    width = (np.where(np.isfinite(v), v, u + 3.0) - start) / 3.0
    z0 = start + width
    f0, f1 = np.split(np.asarray(fn(sd * np.append(z0, z0 + width).reshape(-1, 1)), dtype=float), 2)
    mass = ndtr(v) - ndtr(u)
    partial = (np.exp(-0.5 * u * u) - np.exp(-0.5 * v * v)) / math.sqrt(2.0 * math.pi)
    return float(np.sum(f0 * mass + (f1 - f0) / width * (partial - z0 * mass)))


def target_reward_cdf(
    r: np.ndarray | float, s: float, env: SynthEnvSpec = DEFAULT_ENV
) -> np.ndarray | float:
    """Exact CDF of ``R | s`` under the target policy (Gaussian convolution)."""
    from scipy.special import ndtr

    r_arr = np.asarray(r, dtype=float)
    mean = (1.0 + env.target_slope) * s
    out = np.zeros_like(r_arr, dtype=float)
    for w, v in zip(env.mixture_weights, env.target_component_variances()):
        out = out + w * ndtr((r_arr - mean) / math.sqrt(v))
    return out if r_arr.ndim else float(out)


def _bvn_cdf(h: np.ndarray, k, rho: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``P(X <= h, Y <= k)`` for standard normals with correlation ``rho``.

    Owen's (1956) T-function form, elementwise over the broadcast arguments;
    ``r = sqrt(1 - rho**2)`` is passed in, so it stays positive where ``rho``
    rounds to +-1. At ``h = 0`` (or ``k = 0``) the formula takes its limit
    from the positive side, which ``+ 0.0`` makes of a negative zero; at
    ``h = k = 0`` it is ``1/4 + asin(rho) / (2 pi)``.
    """
    from scipy.special import ndtr, owens_t

    h = h + 0.0
    k = np.add(k, 0.0)
    with np.errstate(all="ignore"):  # an argument of T may be +-inf, its limit
        out = (
            0.5 * (ndtr(h) + ndtr(k))
            - owens_t(h, (k - rho * h) / (h * r))
            - owens_t(k, (h - rho * k) / (k * r))
            - 0.5 * ((h < 0) != (k < 0))
        )
    if (k == 0).any():
        out = np.where((h == 0) & (k == 0), 0.25 + np.arcsin(rho) / (2.0 * np.pi), out)
    return out


def exact_interval_metrics(w_lo, w_up, threshold, env: SynthEnvSpec = DEFAULT_ENV):
    """Exact miscoverage and mean length of an affine interval map.

    The map is the one a calibrated predictor gives: the quantile lines
    ``lo(s) = w_lo[0] + w_lo[1] s`` and ``up(s) = w_up[0] + w_up[1] s``, both
    moved to their midpoint where they cross, widened by the threshold
    ``tau`` on each side. Returns ``E_S[P(R outside [lo - tau, up + tau] | S)]``
    and ``E_S[max(up - lo + 2 tau, 0)]`` with ``S ~ N(0, context_variance)``
    and ``R | s`` the target law of :func:`target_reward_cdf`; an empty
    interval misses with probability 1. A threshold of ``+inf`` gives
    ``(0.0, inf)`` and one of ``-inf``, empty everywhere, ``(1.0, 0.0)``; a
    NaN threshold or a non-finite weight raises ``ValueError``. Given a 1-d
    array of thresholds it returns a list of such pairs, one per threshold,
    each with the bits of the scalar call.

    The gap ``up - lo`` is affine in ``s``. Where it is at least
    ``c = max(0, -2 tau)`` the interval is ``[lo - tau, up + tau]``; elsewhere
    it is ``mid -+ tau`` for ``tau >= 0`` and empty for ``tau < 0``. So the
    line splits at one point, and on each half-line the miss is a mixture sum
    of ``Phi(alpha + beta S)`` terms, whose mean is a bivariate normal
    probability; the length is ``E[(gap - c)^+] + max(2 tau, 0)``.
    """
    from scipy.special import ndtr

    w_lo = np.asarray(w_lo, dtype=float)
    w_up = np.asarray(w_up, dtype=float)
    if w_lo.shape != (2,) or w_up.shape != (2,):
        raise ValueError("exact metrics need 1-d contexts: affine weights of length 2")
    taus = np.asarray(threshold, dtype=float)
    tau_list = taus.reshape(-1).tolist()
    if taus.ndim > 1 or any(map(math.isnan, tau_list)) or not np.all(np.isfinite([w_lo, w_up])):
        raise ValueError("exact metrics need finite weights and scalar or 1-d thresholds, not NaN")
    var = env.context_variance
    sd_s = math.sqrt(var)
    mean_slope = 1.0 + env.target_slope
    sigma = np.sqrt(env.target_component_variances())
    weights = np.asarray(env.mixture_weights, dtype=float)

    (a_lo, b_lo), (a_up, b_up) = w_lo.tolist(), w_up.tolist()
    finite = [tau for tau in tau_list if not math.isinf(tau)]
    gaps = [a_up - a_lo - max(0.0, -2.0 * tau) for tau in finite]  # gap - c, tau by tau
    gap_slope = b_up - b_lo
    spread = abs(gap_slope) * sd_s
    # The band holds on {S > t}, or on {S < t} when the gap falls with s.
    band_below = gap_slope < 0
    ts = [-gap / gap_slope if gap_slope else -math.inf if gap >= 0 else math.inf for gap in gaps]
    # Miss terms Phi((alpha + beta s) / sigma_j), one row per end: the band's
    # two ends, then the midpoint interval's (used off the band when
    # tau >= 0; off the band an interval with tau < 0 is empty), per threshold.
    a_mid, b_mid = 0.5 * (a_lo + a_up), 0.5 * (b_lo + b_up)
    alpha = np.array(
        [[a_lo - tau, -a_up - tau, a_mid - tau, -a_mid - tau] for tau in finite]
    ).reshape(-1, 4, 1) / sigma
    beta = np.array(
        [b_lo - mean_slope, mean_slope - b_up, b_mid - mean_slope, mean_slope - b_mid]
    )[:, None] / sigma
    root = np.sqrt(1.0 + beta * beta * var)
    h = alpha / root
    whole = ndtr(h)
    k = np.array(ts).reshape(-1, 1, 1) / sd_s
    if gap_slope != 0:
        below = _bvn_cdf(h, k, -beta * sd_s / root, 1.0 / root)
    else:
        below = np.where(k > 0, whole, 0.0)
    above = whole - below
    out, blocks = [], iter(zip(gaps, ts, *((below, above) if band_below else (above, below))))
    for tau in tau_list:
        if math.isinf(tau):
            out.append((0.0, math.inf) if tau > 0 else (1.0, 0.0))
            continue
        gap, t, band, rest = next(blocks)
        if spread > 0:
            z = gap / spread
            length = gap * ndtr(z) + spread * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        else:
            length = max(gap, 0.0)
        length += max(2.0 * tau, 0.0)
        miss = float(weights @ (band[0] + band[1]))
        if tau >= 0:
            miss += float(weights @ (rest[2] + rest[3]))
        else:
            miss += float(ndtr(-t / sd_s if band_below else t / sd_s))
        out.append((min(max(miss, 0.0), 1.0), float(length)))
    return out if taus.ndim else out[0]


# Absolute tolerance of the bisection in :func:`_oracle_offset`.
_ORACLE_TOL = 1e-8


@functools.cache
def _oracle_offset(q: float, env: SynthEnvSpec) -> float:
    """Level-``q`` quantile of ``R - (1 + target_slope) s``: a mixture of centred normals, so it
    lies between its components' quantiles ``sigma_j z_q``, and bisecting that bracket to
    ``_ORACLE_TOL`` finds it, or to adjacent floats where they are farther apart."""
    from scipy.special import ndtri

    sigma_z = np.sqrt(env.target_component_variances()) * ndtri(q)
    lo, hi = float(sigma_z.min()), float(sigma_z.max())
    mid = 0.5 * (lo + hi)
    while hi - lo > _ORACLE_TOL and lo < mid < hi:
        if target_reward_cdf(mid, 0.0, env) < q:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def oracle_quantiles(contexts, q: float, env: SynthEnvSpec = DEFAULT_ENV) -> np.ndarray:
    """Level-``q`` quantile of the exact target-conditional reward law at each context.

    Contexts are 1-d, as in the environment; more than one column raises
    ``ValueError``.

    ``R - (1 + target_slope) s`` has the same law at every context, so its
    quantile is found once per ``(q, env)``, at ``s = 0``, by
    :func:`_oracle_offset`, and shifted.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    ctx = _as_context_matrix(contexts)
    if ctx.shape[1] != 1:
        raise ValueError("oracle quantiles need 1-d contexts: one column")
    return (1.0 + env.target_slope) * ctx[:, 0] + _oracle_offset(q, env)


@dataclass(frozen=True)
class TheoremConstants:
    """Finite-sample constants of the coverage-frequency bounds.

    ``c_upper`` scales the ``1/sqrt(n)`` slack above the nominal confidence in
    the upper frequency bound; ``c_band`` the slack below it in the two-sided
    band bound at half-width ``delta_eps``. ``m0`` is the smallest calibration
    size at which the binomial cutoff exceeds -1, ``m1`` its band analogue.
    """

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
    return TheoremConstants(m0=m0, m1=m1, c_upper=c_upper, c_band=c_band)
