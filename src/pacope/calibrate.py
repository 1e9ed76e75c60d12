"""PAC conformal calibration: binomial cutoff, scores, threshold, intervals.

Given calibration scores ``tau_1..tau_M``, the cutoff
``k(M, eps, delta) = max{k in {-1..M-1} : F_Bin(M, eps)(k) <= delta}`` selects
the ``(M - k)``-th smallest score as the threshold; ``k = -1`` (or ``M = 0``)
yields an infinite threshold and the trivial whole-line interval. The binomial
CDF is evaluated by exact incremental pmf summation in log space, never by a
normal approximation: the coverage guarantee is exact and must not be eroded
numerically. Its log-factorial table is numpy arithmetic (a ``math.lgamma``
head and a Stirling series), so calibrating and predicting import no scipy.

:func:`calibrate_split` is the calibration core of every pipeline: given a
``rejection.RsSplit`` (the rejection-sampled training and calibration halves)
it fits the quantile pair and hands it to :func:`calibrate_model`, which
scores the calibration pairs and picks the threshold; that stage alone
recalibrates a fitted band at another ``delta``, and :func:`calibrate_deltas`
at many from one scoring and sort. A predictor is trivial exactly when its
cutoff is ``k = -1``; a degenerate split (``RsSplit.degenerate``, an empty
dataset's included) gets a zero model and that cutoff. The known-policy
pipeline :func:`pacopp_known` rejection-samples with the oracle ratio, then
splits the accepted pairs. The estimated-policy pipeline is
``behavior.pacopp_unknown``, whose sampling stage is ``behavior.rs_split_unknown``.

The fitted :class:`CalibratedPredictor` is the practitioner's artifact; its
``dump``/``load`` pair is the one home of the predictor file format, whose
keys are the fields of the objects they restore.

The split-conformal comparator (plain ``1 - eps`` empirical quantile with an
appended infinity atom) lives here too, along with the inflated level it would
need for the same training-conditional guarantee.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .core import (
    GaussianLinearPolicy,
    LoggedDataset,
    PacParams,
    PredictionInterval,
    StochasticPolicy,
    _as_context_matrix,
    ceil_scaled,
)
from .quantile import QuantilePairModel, fit_quantile_pair, trivial_quantile_model
from .rejection import RsDataset, RsSplit, gaussian_ratio_bound, rejection_sample

__all__ = [
    "CalibrationDiagnostics",
    "CalibratedPredictor",
    "binomial_quantile_k",
    "nonconformity",
    "pac_threshold",
    "split_cp_threshold",
    "split_cp_inflated_level",
    "split_cp_min_calibration_size",
    "calibrate_split",
    "calibrate_model",
    "calibrate_deltas",
    "pacopp_known",
]


_TIE_LOG_TOL = 1e-9

# ``log(j!)`` below the seam is ``math.lgamma``'s; from the seam up it is the
# Stirling series of ``lgamma(x)``, ``x = j + 1``, through its ``x^-7`` term,
# the form cephes' ``gammaln`` takes above 13. The first term left out,
# ``1 / (1188 x^9)``, is below 2e-17 at ``x = 33``.
_STIRLING_SEAM = 32
_LOG_FACTORIAL_HEAD = np.array([math.lgamma(j + 1.0) for j in range(_STIRLING_SEAM)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorials(m: int) -> np.ndarray:
    """``log(j!)`` for ``j = 0..m``, within a few ulp of ``math.lgamma(j + 1)``."""
    if m < _STIRLING_SEAM:
        return _LOG_FACTORIAL_HEAD[: m + 1].copy()
    x = np.arange(_STIRLING_SEAM + 1, m + 2, dtype=float)
    r = 1.0 / (x * x)
    series = (((-1.0 / 1680.0 * r + 1.0 / 1260.0) * r - 1.0 / 360.0) * r + 1.0 / 12.0) / x
    tail = (x - 0.5) * np.log(x) - x + (_HALF_LOG_2PI + series)
    return np.concatenate((_LOG_FACTORIAL_HEAD, tail))


def _trim(lo: int, hi: int, x: int, bits: int) -> tuple[int, int, int]:
    """``[lo, hi] * 2^x`` widened outward to ``bits`` significant bits."""
    s = hi.bit_length() - bits
    return (lo >> s, -(-hi >> s), x + s) if s > 0 else (lo, hi, x)


def _pow_bounds(base: int, n: int, bits: int) -> tuple[int, int, int]:
    """``[lo, hi] * 2^x`` holding ``base^n``, by squaring with ``bits``-bit bounds."""
    lo = hi = 1
    x, b_lo, b_hi, bx = 0, base, base, 0
    while n:
        if n & 1:
            lo, hi, x = _trim(lo * b_lo, hi * b_hi, x + bx, bits)
        n >>= 1
        if n:
            b_lo, b_hi, bx = _trim(b_lo * b_lo, b_hi * b_hi, 2 * bx, bits)
    return lo, hi, x


def _cutoff_exact(m: int, epsilon: float, delta: float, k: int) -> int:
    """Largest ``i <= k`` with ``F_Bin(m, epsilon)(i) <= delta`` (or -1), the floats taken exactly.

    Floats are dyadic rationals, so every comparison has a definite answer.
    The pmf is summed upward from ``(1 - epsilon)^m``, each term held as
    integer bounds ``[lo, hi] * 2^x`` of ``bits`` significant bits and the CDF
    as integer bounds in units of ``2^-bits`` times delta's last bit, so a pass
    costs ``O(k)`` operations on ``bits``-bit integers. It stops at the first
    ``i`` whose CDF upper bound exceeds delta: the answer is ``i - 1`` if the
    lower bound does too, and otherwise the precision doubles. Only a tie
    ``F(i) = delta`` stays undecided for ever, so once the bounds would be as
    long as exact integers, exact integer sums decide.
    """
    a, den = epsilon.as_integer_ratio()
    b, e = den - a, den.bit_length() - 1
    dn, dd = delta.as_integer_ratio()
    de = dd.bit_length() - 1
    bits = 64
    while bits < e * m + de:
        lo, hi, x = _pow_bounds(b, m, bits)
        x -= e * m
        limit, sum_lo, sum_hi = dn << bits, 0, 0
        for i in range(k + 1):
            if i:
                c, d = (m - i + 1) * a, i * b
                s = d.bit_length()
                lo, hi, x = _trim((lo * c << s) // d, -((-hi * c << s) // d), x - s, bits)
            shift = x + de + bits
            sum_lo += lo << shift if shift >= 0 else lo >> -shift
            sum_hi += hi << shift if shift >= 0 else -(-hi >> -shift)
            if sum_hi > limit:
                if sum_lo > limit:
                    return i - 1
                break
        else:
            return k
        bits *= 2
    # Exact: F(i) = sum_j C(m, j) a^j b^(m-j) / 2^(e m) and delta = dn / 2^de.
    term, total = b**m, 0
    for i in range(k + 1):
        if i:
            term = term * (m - i + 1) * a // (i * b)
        total += term
        if total << de > dn << (e * m):
            return i - 1
    return k


def binomial_quantile_k(m: int, epsilon: float, delta: float) -> int:
    """Largest ``k`` in ``{-1, .., m-1}`` with ``F_Bin(m, epsilon)(k) <= delta``.

    Computed by summing binomial pmf terms incrementally in log space
    (``logaddexp`` accumulation of log pmfs built from one table of
    ``log(j!)``, :func:`_log_factorials`), which keeps tail probabilities far
    below double underflow exact to machine precision.
    When the comparison at the candidate cutoff lands within floating error
    of the boundary, every ``k`` up to it is decided again by integer interval
    bounds of growing precision (``_cutoff_exact``), so the result always
    equals the true cutoff for the given float inputs, in ``O(k)`` integer
    operations per precision. ``m = 0`` returns -1.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return _binomial_cutoff(_binomial_log_cdf(m, epsilon), epsilon, delta)


def _binomial_log_cdf(m: int, epsilon: float) -> np.ndarray:
    """``log F_Bin(m, epsilon)(k)`` for ``k = 0..m-1``: the table every cutoff at ``(m, epsilon)`` reads."""
    ks = np.arange(m, dtype=float)
    log_fact = _log_factorials(m)
    log_pmf = (
        log_fact[m]
        - log_fact[:m]
        - log_fact[m:0:-1]
        + ks * math.log(epsilon)
        + (m - ks) * math.log1p(-epsilon)
    )
    return np.logaddexp.accumulate(log_pmf)


def _binomial_cutoff(log_cdf: np.ndarray, epsilon: float, delta: float) -> int:
    """:func:`binomial_quantile_k` at ``delta`` from the table of :func:`_binomial_log_cdf`."""
    log_delta = math.log(delta)
    slack = _TIE_LOG_TOL * (1.0 + np.abs(log_cdf) + abs(log_delta))
    below = np.flatnonzero(log_cdf <= log_delta + slack)
    k = int(below[-1]) if below.size else -1
    # The true cutoff can only sit at or below the optimistic k.
    if k >= 0 and abs(log_cdf[k] - log_delta) <= slack[k]:
        k = _cutoff_exact(log_cdf.shape[0], epsilon, delta, k)
    return k


def nonconformity(model: QuantilePairModel, contexts, rewards) -> np.ndarray | float:
    """Score ``max(q_lo(s) - r, r - q_up(s))``; negative strictly inside the band."""
    ctx = _as_context_matrix(contexts)
    r = np.asarray(rewards, dtype=float).reshape(-1)
    lo, up = model.quantiles(ctx)
    out = np.maximum(lo - r, r - up)
    return float(out[0]) if out.shape[0] == 1 and np.ndim(rewards) == 0 else out


def pac_threshold(scores, epsilon: float, delta: float) -> float:
    """The ``(M - k)``-th smallest score, with the ``(M+1)``-th being infinity.

    Ties are broken by original index (stable sort); ``k = -1`` or an empty
    score list yields ``+inf`` (the trivial interval).
    """
    values = np.asarray(scores, dtype=float).reshape(-1)
    k = binomial_quantile_k(values.shape[0], epsilon, delta)
    return _order_statistic(np.sort(values, kind="stable"), k)


def _order_statistic(ordered: np.ndarray, k: int) -> float:
    """The ``(M - k)``-th of the stably sorted scores, or ``+inf`` at ``k = -1``."""
    return math.inf if k < 0 else float(ordered[ordered.shape[0] - k - 1])


def split_cp_threshold(scores, level: float) -> float:
    """``ceil(level * (M+1))``-th smallest of the scores with an infinity atom.

    The plain split-conformal threshold at the given level; returns ``+inf``
    when the index lands on the appended atom.
    """
    values = np.asarray(scores, dtype=float).reshape(-1)
    return _split_cp_sorted(np.sort(values, kind="stable"), level)


def _split_cp_sorted(ordered: np.ndarray, level: float) -> float:
    """:func:`split_cp_threshold` of scores already sorted stably."""
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    m = ordered.shape[0]
    return _order_statistic(ordered, m - max(1, ceil_scaled(level * (m + 1))))


def split_cp_inflated_level(epsilon: float, delta: float, m: int) -> float:
    """Level split CP must use for the same training-conditional guarantee.

    ``1 - eps + sqrt(ln(1/delta) / (2M))``; exceeds one unless ``M`` is at
    least :func:`split_cp_min_calibration_size`, which is what makes plain
    split CP inapplicable at small calibration sizes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return 1.0 - epsilon + math.sqrt(math.log(1.0 / delta) / (2.0 * m))


def split_cp_min_calibration_size(epsilon: float, delta: float) -> int:
    """Smallest ``M`` with :func:`split_cp_inflated_level` at most one."""
    return int(math.ceil(math.log(1.0 / delta) / (2.0 * epsilon**2)))


@dataclass(frozen=True)
class CalibrationDiagnostics:
    """Run metadata attached to a calibrated predictor; ``trivial`` is derived from ``k``."""

    n_rs: int
    m_cal: int
    k: int
    tie_flag: bool
    weight_violations: int
    bound: float
    variance_clamped: bool = False

    @property
    def trivial(self) -> bool:
        """``k = -1``: the threshold is infinite and the interval the whole line."""
        return self.k == -1


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(text)
    return text == "1"


def _parse_weights(text: str) -> np.ndarray:
    values = np.array([float(v) for v in text.split()], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(text)
    return values


_FLOAT = (repr, float)
_WEIGHTS = (lambda w: " ".join(repr(float(v)) for v in np.asarray(w, dtype=float)), _parse_weights)
_BY_TYPE = {"float": _FLOAT, "int": (str, int), "bool": (lambda flag: str(int(flag)), _parse_flag)}

# The predictor file, one ``key=value`` line per key in this order, each with
# its (format, parse) pair: the PAC parameters, the threshold, the
# diagnostics, then the quantile model's weights. Each key is a field of the
# object it restores; the quantile levels follow from ``epsilon``.
_FILE_KEYS = {
    **{f.name: _BY_TYPE[f.type] for f in fields(PacParams)},
    "threshold": _FLOAT,
    **{f.name: _BY_TYPE[f.type] for f in fields(CalibrationDiagnostics)},
    "w_lo": _WEIGHTS,
    "w_up": _WEIGHTS,
}


@dataclass(frozen=True)
class CalibratedPredictor:
    """Quantile pair plus threshold: maps a context to a prediction interval.

    The threshold is ``+inf`` exactly when the cutoff is -1 (the diagnostics'
    ``trivial``), in which case every interval is the whole real line, and
    finite otherwise; an empty calibration set forces ``k = -1``. The model
    was fitted at the parameters' levels ``(eps_lo, eps_up)``.
    """

    model: QuantilePairModel
    threshold: float
    params: PacParams
    diagnostics: CalibrationDiagnostics

    def __post_init__(self) -> None:
        d = self.diagnostics
        if not (0 <= d.m_cal <= d.n_rs and -1 <= d.k < d.m_cal):
            raise ValueError("diagnostics must have 0 <= m_cal <= n_rs and -1 <= k < m_cal; "
                             f"got n_rs={d.n_rs}, m_cal={d.m_cal}, k={d.k}")
        if not (self.threshold == math.inf if d.trivial else math.isfinite(self.threshold)):
            raise ValueError(f"threshold must be +inf iff k == -1, else finite; got {self.threshold!r}")

    def interval_batch(self, contexts) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized interval endpoints ``(lo, hi)``; ``(-inf, +inf)`` at every row if trivial.

        A NaN or infinite context raises ``ValueError``, and so does one at
        which an end of a finite-threshold interval overflows."""
        ctx = _as_context_matrix(contexts)
        if not np.isfinite(ctx).all():
            bad = ctx[~np.isfinite(ctx).all(axis=1)][0]
            raise ValueError(f"context {bad.tolist()} is NaN or infinite")
        with np.errstate(over="ignore", invalid="ignore"):
            lo, up = self.model.quantiles(ctx)
            if self.diagnostics.trivial:
                return np.full_like(lo, -math.inf), np.full_like(up, math.inf)
            lo, hi = lo - self.threshold, up + self.threshold
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            bad = ctx[~(np.isfinite(lo) & np.isfinite(hi))][0]
            raise ValueError(f"the interval at context {bad.tolist()} overflows")
        return lo, hi

    def predict(self, s) -> PredictionInterval | None:
        """Interval at one context: a scalar, or a vector of the model's dimension.

        ``None`` is the empty interval, which a negative threshold gives
        wherever the band is narrower than twice its magnitude, as it is where
        the fitted quantiles cross: no reward scores at most the threshold.
        It raises where :meth:`interval_batch` does.
        """
        (lo,), (hi,) = self.interval_batch(np.asarray(s, dtype=float).reshape(1, -1))
        return None if lo > hi else PredictionInterval(float(lo), float(hi))

    def dump(self) -> str:
        """The predictor file: one ``key=value`` line per key, round-trip exact."""
        values = {
            **asdict(self.params),
            "threshold": self.threshold,
            **asdict(self.diagnostics),
            "w_lo": self.model.w_lo,
            "w_up": self.model.w_up,
        }
        return "".join(f"{key}={fmt(values[key])}\n" for key, (fmt, _) in _FILE_KEYS.items())

    @staticmethod
    def load(text: str) -> "CalibratedPredictor":
        """Inverse of ``dump``; blank lines are skipped.

        A missing, repeated, unknown or malformed line, a non-finite weight,
        weight vectors of unequal or too short length, and values that make
        no valid predictor raise ``ValueError``.
        """
        raw: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key not in _FILE_KEYS:
                raise ValueError(f"predictor file: unknown field {key!r}")
            if key in raw:
                raise ValueError(f"predictor file: repeated field {key!r}")
            raw[key] = value
        parsed = {}
        for key, (_, parse) in _FILE_KEYS.items():
            if key not in raw:
                raise ValueError(f"predictor file: missing field {key!r}")
            try:
                parsed[key] = parse(raw[key])
            except ValueError:
                raise ValueError(f"predictor file: malformed field {key}={raw[key]!r}") from None
        w_lo, w_up = parsed["w_lo"], parsed["w_up"]
        if w_lo.size != w_up.size or w_lo.size < 2:
            raise ValueError(f"predictor file: weight sizes {w_lo.size}, {w_up.size} fit no affine model")
        try:
            params = PacParams(**{f.name: parsed[f.name] for f in fields(PacParams)})
            return CalibratedPredictor(
                QuantilePairModel(w_lo, w_up),
                parsed["threshold"],
                params,
                CalibrationDiagnostics(**{f.name: parsed[f.name] for f in fields(CalibrationDiagnostics)}),
            )
        except ValueError as exc:
            raise ValueError(f"predictor file: {exc}") from None


def _fit_split(split: RsSplit, params: PacParams) -> QuantilePairModel:
    """The quantile pair fitted on ``split.train``, or the zero model of a degenerate split."""
    if split.degenerate:
        return trivial_quantile_model(split.train.contexts.shape[1])
    return fit_quantile_pair(split.train, params)


def calibrate_split(split: RsSplit, params: PacParams) -> CalibratedPredictor:
    """Fit the quantile pair on ``split.train``, then :func:`calibrate_model` on ``split.cal``.

    A degenerate split gets a zero model and so the trivial predictor, not an
    error, so Monte Carlo sweeps stay total."""
    return calibrate_model(_fit_split(split, params), split, params)


def calibrate_model(model: QuantilePairModel, split: RsSplit, params: PacParams) -> CalibratedPredictor:
    """Score ``split.cal`` with a fitted quantile pair and pick the PAC threshold at ``params``.

    It recalibrates a band at another ``delta`` without refitting. A degenerate
    split gets ``k = -1`` and an infinite threshold, whatever the model. The
    split's size, violations, bound and clamp flag go into the diagnostics.
    It is :func:`calibrate_deltas` at ``params.delta`` alone."""
    return calibrate_deltas(model, split, params, (params.delta,))[0]


def calibrate_deltas(model: QuantilePairModel, split: RsSplit, params: PacParams,
                     deltas) -> list[CalibratedPredictor]:
    """:func:`calibrate_model` at ``params`` with each of ``deltas`` in turn, one predictor each.

    ``split.cal`` is scored and sorted once, and the binomial table at its
    size and ``params.epsilon`` built once; each delta adds only its cutoff."""
    return _calibration_pass(model, split, params, deltas)[0]


def _calibration_pass(model: QuantilePairModel, split: RsSplit, params: PacParams,
                      deltas) -> tuple[list[CalibratedPredictor], np.ndarray]:
    """:func:`calibrate_deltas` and the stably sorted scores it read, empty for a degenerate split."""
    cal = split.cal
    ordered = log_cdf = np.empty(0)
    if not split.degenerate:
        scores = nonconformity(model, cal.contexts, cal.rewards)
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        ordered = np.sort(scores, kind="stable")
        log_cdf = _binomial_log_cdf(len(cal), params.epsilon)
    tie_flag = bool(np.any(ordered[1:] == ordered[:-1]))
    predictors = []
    for delta in deltas:
        at_delta = replace(params, delta=delta)
        k = _binomial_cutoff(log_cdf, params.epsilon, delta)
        diagnostics = CalibrationDiagnostics(
            n_rs=split.n_rs,
            m_cal=len(cal),
            k=k,
            tie_flag=tie_flag,
            weight_violations=split.violations,
            bound=split.bound,
            variance_clamped=split.variance_clamped,
        )
        predictors.append(CalibratedPredictor(model, _order_statistic(ordered, k), at_delta, diagnostics))
    return predictors, ordered


def pacopp_known(
    d: LoggedDataset,
    pb: StochasticPolicy,
    pe: StochasticPolicy,
    params: PacParams,
    rng: np.random.Generator,
) -> CalibratedPredictor:
    """Full pipeline with a known behavior policy.

    Rejection-sample the logged data with the oracle density ratio, split the
    accepted pairs into a training prefix and calibration tail, and hand both
    to :func:`calibrate_split`. An empty dataset gives an empty split with
    bound 1, and so the trivial predictor of the data's context dimension.
    Policies of another context dimension raise ``ValueError``, rows or none.

    The stream supplies the acceptance variates, one per sample in dataset
    index order.
    """
    if not isinstance(pb, GaussianLinearPolicy) or not isinstance(pe, GaussianLinearPolicy):
        raise ValueError(
            "automatic weight bounds are available for Gaussian policies only; "
            "use rejection.rejection_sample with an explicit bound"
        )
    for policy in (pe, pb):
        policy.mean(d.contexts[:0])  # raises on a context-dimension mismatch, rows or none
    if len(d) == 0:
        empty = RsDataset.empty(d.context_dim)
        return calibrate_split(RsSplit(empty, empty, violations=0, bound=1.0), params)
    bound = gaussian_ratio_bound(pe, pb, d.contexts)
    rs = rejection_sample(d, pe, pb, bound, rng)
    train, cal = rs.split(params.gamma)
    return calibrate_split(RsSplit(train, cal, rs.n_violations, bound), params)
