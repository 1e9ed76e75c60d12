"""PAC conformal calibration: binomial cutoff, scores, threshold, intervals.

Given calibration scores ``tau_1..tau_M``, the cutoff
``k(M, eps, delta) = max{k in {-1..M-1} : F_Bin(M, eps)(k) <= delta}`` selects
the ``(M - k)``-th smallest score as the threshold; ``k = -1`` (or ``M = 0``)
yields an infinite threshold and the trivial whole-line interval. The binomial
CDF is evaluated by exact incremental pmf summation in log space, never by a
normal approximation: the coverage guarantee is exact and must not be eroded
numerically.

:func:`calibrate_split` is the calibration core of every pipeline: given a
``rejection.RsSplit`` (the rejection-sampled training and calibration halves)
it fits the quantile pair, scores the calibration pairs and picks the
threshold. The known-policy pipeline :func:`pacopp_known` lives here: it
rejection-samples with the oracle ratio, then splits the accepted pairs. The
estimated-policy pipeline is ``behavior.pacopp_unknown``, whose sampling
stage is ``behavior.rs_split_unknown``.

The fitted :class:`CalibratedPredictor` is the practitioner's artifact; its
``dump``/``load`` pair is the one home of the predictor file format.

The split-conformal comparator (plain ``1 - eps`` empirical quantile with an
appended infinity atom) lives here too, along with the inflated level it would
need for the same training-conditional guarantee.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

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
from .rejection import RsSplit, gaussian_ratio_bound, rejection_sample

__all__ = [
    "CalibrationDiagnostics",
    "CalibratedPredictor",
    "binomial_quantile_k",
    "nonconformity",
    "pac_threshold",
    "pac_threshold_argmin_oracle",
    "split_cp_threshold",
    "split_cp_inflated_level",
    "split_cp_min_calibration_size",
    "calibrate_split",
    "pacopp_known",
]


_TIE_LOG_TOL = 1e-9


def _cdf_leq_exact(m: int, epsilon: float, delta: float, k: int) -> bool:
    # Exact-rational adjudication of F_Bin(m, eps)(k) <= delta; float inputs
    # are dyadic rationals, so the comparison has a definite answer.
    eps = Fraction(epsilon)
    pmf = (1 - eps) ** m
    cdf = pmf
    for i in range(1, k + 1):
        pmf = pmf * (m - i + 1) * eps / (i * (1 - eps))
        cdf += pmf
    return cdf <= Fraction(delta)


def binomial_quantile_k(m: int, epsilon: float, delta: float) -> int:
    """Largest ``k`` in ``{-1, .., m-1}`` with ``F_Bin(m, epsilon)(k) <= delta``.

    Computed by summing binomial pmf terms incrementally in log space
    (``logaddexp`` accumulation over lgamma-based log pmfs), which keeps tail
    probabilities far below double underflow exact to machine precision.
    Comparisons that land within floating error of the boundary are
    re-adjudicated in exact rational arithmetic, so the result always equals
    the true cutoff for the given float inputs. ``m = 0`` returns -1.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if m == 0:
        return -1
    ks = np.arange(m, dtype=float)
    log_pmf = (
        gammaln(m + 1.0)
        - gammaln(ks + 1.0)
        - gammaln(m - ks + 1.0)
        + ks * math.log(epsilon)
        + (m - ks) * math.log1p(-epsilon)
    )
    log_cdf = np.logaddexp.accumulate(log_pmf)
    log_delta = math.log(delta)
    slack = _TIE_LOG_TOL * (1.0 + np.abs(log_cdf) + abs(log_delta))
    below = np.flatnonzero(log_cdf <= log_delta + slack)
    k = int(below[-1]) if below.size else -1
    # The true cutoff can only sit at or below the optimistic k; walk down
    # through boundary-ambiguous verdicts, adjudicating each one exactly.
    while k >= 0 and abs(log_cdf[k] - log_delta) <= slack[k] and not _cdf_leq_exact(m, epsilon, delta, k):
        k -= 1
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
    m = values.shape[0]
    k = binomial_quantile_k(m, epsilon, delta)
    if k < 0:
        return math.inf
    order = np.argsort(values, kind="stable")
    return float(values[order[m - k - 1]])


def pac_threshold_argmin_oracle(scores, epsilon: float, delta: float) -> float:
    """Brute-force form: smallest candidate threshold leaving at most ``k`` misses.

    Candidates are the score values themselves plus infinity. Used only as a
    test oracle for :func:`pac_threshold`.
    """
    values = np.asarray(scores, dtype=float).reshape(-1)
    m = values.shape[0]
    k = binomial_quantile_k(m, epsilon, delta)
    if m == 0:
        return math.inf
    for tau in np.sort(values):
        if int(np.count_nonzero(values > tau)) <= k:
            return float(tau)
    return math.inf


def split_cp_threshold(scores, level: float) -> float:
    """``ceil(level * (M+1))``-th smallest of the scores with an infinity atom.

    The plain split-conformal threshold at the given level; returns ``+inf``
    when the index lands on the appended atom.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError("level must lie in (0, 1]")
    values = np.asarray(scores, dtype=float).reshape(-1)
    m = values.shape[0]
    j = max(1, ceil_scaled(level * (m + 1)))
    if j >= m + 1:
        return math.inf
    order = np.argsort(values, kind="stable")
    return float(values[order[j - 1]])


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
    """Run metadata attached to a calibrated predictor."""

    n_rs: int
    m_cal: int
    k: int
    tie_flag: bool
    weight_violations: int
    trivial: bool
    bound: float
    variance_clamped: bool = False


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
_INT = (str, int)
_WEIGHTS = (lambda w: " ".join(repr(float(v)) for v in np.asarray(w, dtype=float)), _parse_weights)
_BY_TYPE = {"float": _FLOAT, "float | None": _FLOAT, "int": _INT,
            "bool": (lambda flag: str(int(flag)), _parse_flag)}

# The predictor file, one ``key=value`` line per key in this order, each with
# its (format, parse) pair: the PAC parameters, the threshold, the
# diagnostics, then the quantile model. ``model.kind`` and the
# ``model.{lo,up}.0.shape`` lines are kept from an older format that had
# several model kinds and weight blocks.
_FILE_KEYS = {
    **{f.name: _BY_TYPE[f.type] for f in fields(PacParams)},
    "threshold": _FLOAT,
    **{f.name: _BY_TYPE[f.type] for f in fields(CalibrationDiagnostics)},
    "model.kind": (str, str),
    "model.eps_lo": _FLOAT,
    "model.eps_up": _FLOAT,
    "model.lo.0.shape": _INT,
    "model.lo.0.values": _WEIGHTS,
    "model.up.0.shape": _INT,
    "model.up.0.values": _WEIGHTS,
}


@dataclass(frozen=True)
class CalibratedPredictor:
    """Quantile pair plus threshold: maps a context to a prediction interval.

    The threshold is ``+inf`` exactly when the cutoff is -1 or the calibration
    set is empty, in which case every interval is the whole real line, and
    finite otherwise. The model's quantile levels are the parameters'
    ``(eps_lo, eps_up)``.
    """

    model: QuantilePairModel
    threshold: float
    params: PacParams
    diagnostics: CalibrationDiagnostics

    def __post_init__(self) -> None:
        degenerate = self.diagnostics.k == -1 or self.diagnostics.m_cal == 0
        if not (self.threshold == math.inf if degenerate else math.isfinite(self.threshold)):
            raise ValueError("threshold must be +inf iff k == -1 or the calibration set "
                             f"is empty, and finite otherwise; got {self.threshold!r}")
        levels = (self.params.eps_lo, self.params.eps_up)
        if tuple(self.model.levels) != levels:
            raise ValueError(f"model levels {self.model.levels} differ from (eps_lo, eps_up) {levels}")

    def interval_batch(self, contexts) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized interval endpoints for an array of contexts."""
        lo, up = self.model.quantiles(contexts)
        return lo - self.threshold, up + self.threshold

    def predict(self, s) -> PredictionInterval | None:
        """Interval at one context: a scalar, or a vector of the model's dimension.

        ``None`` is the empty interval, which a negative threshold gives
        wherever the band is narrower than twice its magnitude, as it is where
        the fitted quantiles cross: no reward scores at most the threshold.
        """
        lo, hi = self.interval_batch(np.asarray(s, dtype=float).reshape(1, -1))
        return None if lo[0] > hi[0] else PredictionInterval(float(lo[0]), float(hi[0]))

    def dump(self) -> str:
        """The predictor file: one ``key=value`` line per key, round-trip exact."""
        model = self.model
        values = {
            **asdict(self.params),
            "threshold": self.threshold,
            **asdict(self.diagnostics),
            "model.kind": "affine",
            "model.eps_lo": model.levels[0],
            "model.eps_up": model.levels[1],
            "model.lo.0.shape": len(model.w_lo),
            "model.lo.0.values": model.w_lo,
            "model.up.0.shape": len(model.w_up),
            "model.up.0.values": model.w_up,
        }
        return "".join(f"{key}={fmt(values[key])}\n" for key, (fmt, _) in _FILE_KEYS.items())

    @staticmethod
    def load(text: str) -> "CalibratedPredictor":
        """Inverse of ``dump``; blank lines are skipped.

        A missing, repeated, unknown or malformed line, a non-finite weight,
        and values that make no valid predictor raise ``ValueError``.
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
        if parsed["model.kind"] != "affine":
            raise ValueError(f"predictor file: unknown model kind {parsed['model.kind']!r}")
        w_lo, w_up = parsed["model.lo.0.values"], parsed["model.up.0.values"]
        shapes = (parsed["model.lo.0.shape"], parsed["model.up.0.shape"])
        if (w_lo.size, w_up.size) != shapes:
            raise ValueError(f"predictor file: weight values do not fill shapes {shapes}")
        if w_lo.size != w_up.size or w_lo.size < 2:
            raise ValueError(f"predictor file: weight sizes {shapes} do not fit an affine model")
        try:
            return CalibratedPredictor(
                QuantilePairModel(w_lo, w_up, (parsed["model.eps_lo"], parsed["model.eps_up"])),
                parsed["threshold"],
                PacParams(**{f.name: parsed[f.name] for f in fields(PacParams)}),
                CalibrationDiagnostics(**{f.name: parsed[f.name] for f in fields(CalibrationDiagnostics)}),
            )
        except ValueError as exc:
            raise ValueError(f"predictor file: {exc}") from None


def _trivial_predictor(
    params: PacParams,
    context_dim: int,
    n_rs: int,
    m_cal: int,
    violations: int,
    bound: float,
    variance_clamped: bool = False,
) -> CalibratedPredictor:
    diagnostics = CalibrationDiagnostics(
        n_rs=n_rs,
        m_cal=m_cal,
        k=-1,
        tie_flag=False,
        weight_violations=violations,
        trivial=True,
        bound=bound,
        variance_clamped=variance_clamped,
    )
    model = trivial_quantile_model((params.eps_lo, params.eps_up), context_dim)
    return CalibratedPredictor(model, math.inf, params, diagnostics)


def calibrate_split(split: RsSplit, params: PacParams) -> CalibratedPredictor:
    """Fit the quantile pair on ``split.train`` and calibrate its threshold on ``split.cal``.

    The calibration core shared by every pipeline: it takes the sampling
    stage's two rejection-sampled halves, fits the quantile pair, scores the
    calibration pairs, and picks the PAC threshold. A degenerate split (fewer
    than two training pairs or no calibration pairs) yields the trivial
    predictor instead of an error, so Monte Carlo sweeps stay total. The
    split's size, violations, bound and clamp flag are recorded in the
    diagnostics as given.
    """
    train, cal = split.train, split.cal
    if len(train) < 2 or len(cal) == 0:
        return _trivial_predictor(
            params, train.contexts.shape[1], n_rs=split.n_rs, m_cal=len(cal),
            violations=split.violations, bound=split.bound,
            variance_clamped=split.variance_clamped,
        )
    model = fit_quantile_pair(train, params)
    scores = nonconformity(model, cal.contexts, cal.rewards)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    threshold = pac_threshold(scores, params.epsilon, params.delta)
    diagnostics = CalibrationDiagnostics(
        n_rs=split.n_rs,
        m_cal=len(cal),
        k=binomial_quantile_k(len(cal), params.epsilon, params.delta),
        tie_flag=bool(np.unique(scores).size < scores.size),
        weight_violations=split.violations,
        trivial=False,
        bound=split.bound,
        variance_clamped=split.variance_clamped,
    )
    return CalibratedPredictor(model, threshold, params, diagnostics)


def pacopp_known(
    d: LoggedDataset,
    pb: StochasticPolicy,
    pe: StochasticPolicy,
    params: PacParams,
    rng: np.random.Generator | None = None,
) -> CalibratedPredictor:
    """Full pipeline with a known behavior policy.

    Rejection-sample the logged data with the oracle density ratio, split the
    accepted pairs into a training prefix and calibration tail, and hand both
    to :func:`calibrate_split`.

    The stream supplies the acceptance variates, one per sample in dataset
    index order.
    """
    if rng is None:
        raise ValueError("an rng is required")
    if len(d) == 0:
        return _trivial_predictor(
            params, d.context_dim, n_rs=0, m_cal=0, violations=0, bound=1.0
        )
    if not isinstance(pb, GaussianLinearPolicy) or not isinstance(pe, GaussianLinearPolicy):
        raise ValueError(
            "automatic weight bounds are available for Gaussian policies only; "
            "use rejection.rejection_sample with an explicit bound"
        )
    bound = gaussian_ratio_bound(pe, pb, d.contexts)
    rs = rejection_sample(d, pe, pb, bound, rng)
    train, cal = rs.split(params.gamma)
    return calibrate_split(RsSplit(train, cal, rs.n_violations, bound), params)
