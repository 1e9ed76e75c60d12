"""Experiment harness: seeded trial sweeps, coverage metrics, figure tables,
and the theorem-bound check, a pure function of figure 1's trials.

Every sweep derives one child stream per (tag, grid point, run, substream)
from the master seed, so results are bit-identical across reruns and across
serial/parallel execution; workers share nothing mutable and the result table
is assembled in trial-index order regardless of completion order.

Trials call the library pipelines and add no statistics of their own: known
trials run ``pacopp_known``; unknown trials and figure 2 build the
unknown-policy sampling stage with ``behavior.rs_split_unknown`` and hand it
to ``calibrate.calibrate_split``, so they compute exactly what
``pacopp_unknown`` does on the same streams (figure 2 with the Gaussian fit,
unknown trials with the estimator ``BenchConfig.finite_class`` picks). Every
PAC row is one ``CalibratedPredictor`` through ``_report``: figure 2 fits the
split's quantile pair once and calibrates it once, scoring and sorting the
calibration half a single time for all its deltas (``calibrate_deltas``'
pass). Its COPP-RS row takes the split-CP threshold from the same sorted
scores, and its COPP row comes from the public COPP API of ``baselines``
with the split's behavior estimate; the COPP weights are exact and draw no
randomness.

A trial draws only its data and its acceptance variates, no test set. The
miscoverage and mean length of every rejection-sampling row (known, unknown,
and figure 2's PAC and COPP-RS rows) are exact, from
``synthenv.exact_interval_metrics``, and so is theorem 4's measure, on figure
1's trials. Figure 2's COPP row integrates the target law's mass on COPP's
exact sets (``baselines.copp_sets``) and their measure over the context, and
``synthenv.weight_error`` the weight error of unknown trials, by
``synthenv``'s 32-node Gauss-Hermite rule.

Desk-scale defaults (500 runs) replace the full-scale run counts of the
original experiments; every asserted frequency carries a 3-sigma Monte Carlo
tolerance. Full scale is reachable through the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .baselines import (
    CoppCalibration,
    copp_calibrate,
    copp_sets,
    fit_reward_model,
)
from .behavior import (
    VARIANCE_MARGIN,
    FinitePolicyClass,
    finite_policy_class,
    rs_split_unknown,
)
from .calibrate import (
    CalibratedPredictor,
    calibrate_split,
    pacopp_known,
    _calibration_pass,
    _fit_split,
    _split_cp_sorted,
)
from .core import (
    GaussianLinearPolicy,
    PacParams,
    child_rng,
    split_dataset,
)
from .quantile import fit_quantile_pair
from .rejection import gaussian_ratio_bound
from .synthenv import (
    DEFAULT_ENV,
    SynthEnvSpec,
    exact_interval_metrics,
    oracle_quantiles,
    sample_logged,
    target_reward_cdf,
    theorem_constants,
    weight_error,
    _hermite_rule,
    _mean_piecewise_affine,
)

__all__ = [
    "BenchConfig",
    "TrialReport",
    "AggregateTable",
    "simulate_trial",
    "run_figure1",
    "run_figure2",
    "bounds_table",
    "run_theorem4_convergence",
    "run_unknown_sweep",
    "default_finite_class",
]

_TAG_KNOWN = 1
_TAG_FIGURE2 = 2
_TAG_UNKNOWN = 4

FIGURE1_HEADER = ("n", "delta_eps", "runs", "band_freq", "stderr")
FIGURE1_TRIALS_HEADER = ("n", "run", "miscoverage", "mean_length", "trivial_flag")
FIGURE2_HEADER = ("method", "delta", "run", "coverage", "mean_length", "trivial_flag")
BOUNDS_HEADER = ("n", "freq", "lower", "upper", "vacuous", "pass")
THEOREM4_HEADER = ("n", "runs", "n_trivial", "median_measure")


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for all sweeps; field names double as config-file keys.

    ``epochs`` and ``policy_epochs`` are accepted and ignored: the quantile,
    behavior-policy and COPP reward fits are exact, with no epochs to set.
    ``copp_mc_samples`` is accepted and ignored too: the COPP weights are
    exact, with no Monte Carlo draws to set. So are ``test_points``,
    ``copp_grid_size`` and ``length_subsample``: every trial's coverage and
    length are exact or by quadrature, with no test set or reward grid.
    """

    n: int = 2000
    runs: int = 500
    test_points: int = 10000
    epsilon: float = 0.2
    delta: float = 0.1
    gamma: float = 0.5
    epochs: int = 1500
    n_grid: tuple[int, ...] = (500, 1000, 2000, 4000)
    delta_eps_grid: tuple[float, ...] = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.5, 1.0)
    delta_eps: float = 0.05
    figure2_deltas: tuple[float, ...] = (0.5, 0.25, 0.1, 0.01)
    copp_mc_samples: int = 50
    copp_grid_size: int = 200
    length_subsample: int = 500
    theorem4_n_grid: tuple[int, ...] = (500, 2000, 8000)
    theorem4_runs: int = 40
    policy_epochs: int = 600
    n_jobs: int = 1
    env: SynthEnvSpec = DEFAULT_ENV
    # The behavior fit's variance-clamp margin; a constant, not a config key.
    policy_margin: ClassVar[float] = VARIANCE_MARGIN

    def __post_init__(self) -> None:
        for name in ("runs", "theorem4_runs", "n_jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.pac_params()  # raises for epsilon, delta or gamma outside (0, 1)
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        for name in ("n_grid", "delta_eps_grid", "figure2_deltas", "theorem4_n_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for name in ("n_grid", "theorem4_n_grid"):
            if min(getattr(self, name)) < 1:
                raise ValueError(f"{name} entries must be >= 1")
        if not all(d > 0.0 for d in self.delta_eps_grid):
            raise ValueError("delta_eps_grid entries must be > 0")
        if not all(0.0 < d < 1.0 for d in self.figure2_deltas):
            raise ValueError("figure2_deltas entries must lie in (0, 1)")

    def pac_params(self) -> PacParams:
        return PacParams(self.epsilon, self.delta, self.gamma)

    def finite_class(self, method: str) -> FinitePolicyClass | None:
        """Behavior-policy estimator: ``None`` (the Gaussian fit) for ``gaussian``,
        :func:`default_finite_class` for ``mle``; any other method raises ``ValueError``."""
        if method not in ("gaussian", "mle"):
            raise ValueError("method must be 'gaussian' or 'mle'")
        return default_finite_class(self.env) if method == "mle" else None

    @staticmethod
    def from_mapping(mapping: dict[str, str]) -> "BenchConfig":
        """Build a config from flat ``key=value`` text entries.

        Environment parameters use ``env_`` keys (``env_mixture_weights``,
        ``env_component_variances``, ``env_context_variance``, ...); tuple
        values are comma-separated. Unknown keys raise.
        """
        cfg_fields = {f.name: f for f in fields(BenchConfig) if f.name != "env"}
        env_fields = {f.name: f for f in fields(SynthEnvSpec)}
        cfg_kwargs: dict = {}
        env_kwargs: dict = {}
        for key, raw in mapping.items():
            if key.startswith("env_"):
                name = key[len("env_"):]
                if name not in env_fields:
                    raise ValueError(f"unknown config key: {key}")
                env_kwargs[name] = _parse_value(raw, env_fields[name].type)
            elif key in cfg_fields:
                cfg_kwargs[key] = _parse_value(raw, cfg_fields[key].type)
            else:
                raise ValueError(f"unknown config key: {key}")
        env = SynthEnvSpec(**env_kwargs) if env_kwargs else DEFAULT_ENV
        return BenchConfig(env=env, **cfg_kwargs)


def _parse_value(raw: str, type_name: str):
    raw = raw.strip()
    if "tuple" in type_name:
        parts = [p for p in raw.split(",") if p.strip() != ""]
        if "int" in type_name:
            return tuple(int(p) for p in parts)
        return tuple(float(p) for p in parts)
    if type_name == "int":
        return int(raw)
    if type_name == "float":
        return float(raw)
    return raw


@dataclass(frozen=True)
class TrialReport:
    """Per-run record: miscoverage, mean interval length, diagnostics.

    Known and unknown trials and figure 2's PAC and COPP-RS rows report the
    exact miscoverage and mean length under the synthetic target law. Figure
    2's COPP rows report them by Gauss-Hermite quadrature over the context of
    COPP's exact sets; an unbounded set makes the row trivial, with infinite
    length.

    ``weight_violations`` counts density ratios above the rejection-sampling
    bound; COPP does not rejection-sample, so it is 0 on COPP rows.
    """

    method: str
    run: int
    n: int
    epsilon: float
    delta: float
    gamma: float
    miscoverage: float
    mean_length: float
    trivial: bool
    threshold: float
    n_rs: int
    m_cal: int
    k: int
    tie_flag: bool
    weight_violations: int
    delta_w_hat: float = float("nan")

    def __post_init__(self) -> None:
        if not 0.0 <= self.miscoverage <= 1.0:
            raise ValueError("miscoverage must lie in [0, 1]")
        if self.mean_length < 0:
            raise ValueError("mean_length must be nonnegative (inf allowed)")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "" if math.isnan(v) else repr(v)
    return str(value)


@dataclass(frozen=True)
class AggregateTable:
    """CSV-ready rows plus the raw per-trial reports they were computed from."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    trials: tuple[TrialReport, ...] = ()

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.header) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _predictor_metrics(pred: CalibratedPredictor, env: SynthEnvSpec, thresholds=None):
    """Exact (miscoverage, mean length) of ``pred`` under ``env``, or a list at ``thresholds``."""
    tau = pred.threshold if thresholds is None else thresholds
    return exact_interval_metrics(pred.model.w_lo, pred.model.w_up, tau, env)


def _report(
    method: str,
    run: int,
    n: int,
    pred: CalibratedPredictor,
    env: SynthEnvSpec,
    delta_w_hat: float = float("nan"),
    metrics: tuple[float, float] | None = None,
) -> TrialReport:
    """The trial record of one calibrated predictor, at its own PAC parameters."""
    miscoverage, length = metrics or _predictor_metrics(pred, env)
    d, params = pred.diagnostics, pred.params
    return TrialReport(
        method=method,
        run=run,
        n=n,
        epsilon=params.epsilon,
        delta=params.delta,
        gamma=params.gamma,
        miscoverage=miscoverage,
        mean_length=length,
        trivial=d.trivial,
        threshold=pred.threshold,
        n_rs=d.n_rs,
        m_cal=d.m_cal,
        k=d.k,
        tie_flag=d.tie_flag,
        weight_violations=d.weight_violations,
        delta_w_hat=delta_w_hat,
    )


def _map_trials(fn, argslist, n_jobs: int) -> list:
    if n_jobs <= 1 or len(argslist) <= 1:
        return [fn(args) for args in argslist]
    from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep pays its import

    chunk = max(1, len(argslist) // (4 * n_jobs))
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, argslist, chunksize=chunk))


# ---------------------------------------------------------------------------
# known-policy trials (figure 1 and theorem 4 share these streams)
# ---------------------------------------------------------------------------

def _known_predictor(config, master_seed, n, run) -> CalibratedPredictor:
    """The known-policy pipeline on the data and acceptance streams of trial ``(n, run)``."""
    env = config.env
    d = sample_logged(n, child_rng(master_seed, _TAG_KNOWN, n, run, 0), env)
    return pacopp_known(d, env.behavior_policy(), env.target_policy(), config.pac_params(),
                        child_rng(master_seed, _TAG_KNOWN, n, run, 1))


def _known_trial(args) -> TrialReport:
    config, master_seed, n, run = args
    return _report("PACOPP", run, n, _known_predictor(*args), config.env)


def run_figure1(config: BenchConfig, master_seed: int) -> AggregateTable:
    """Band frequencies of the known-policy pipeline over the (n, half-width) grid.

    Trials are shared across band half-widths for the same ``n``; each row
    reports the empirical frequency of ``eps - delta_eps < miscoverage <= eps``
    with its binomial standard error.
    """
    args = [(config, master_seed, n, run) for n in config.n_grid for run in range(config.runs)]
    trials = _map_trials(_known_trial, args, config.n_jobs)
    rows = []
    for n in config.n_grid:
        l_hat = np.array([t.miscoverage for t in trials if t.n == n])
        for de in config.delta_eps_grid:
            inside = (l_hat > config.epsilon - de) & (l_hat <= config.epsilon)
            freq = float(np.mean(inside))
            stderr = math.sqrt(freq * (1.0 - freq) / config.runs)
            rows.append((n, de, config.runs, freq, stderr))
    return AggregateTable(FIGURE1_HEADER, tuple(rows), tuple(trials))


def figure1_trials_table(table: AggregateTable) -> AggregateTable:
    """Raw per-trial rows backing a figure-1 table (for exact recomputation)."""
    rows = tuple(
        (t.n, t.run, t.miscoverage, t.mean_length, t.trivial) for t in table.trials
    )
    return AggregateTable(FIGURE1_TRIALS_HEADER, rows)


def bounds_table(config: BenchConfig, figure1: AggregateTable) -> AggregateTable:
    """Empirical PAC frequency of figure 1's trials against the finite-sample bounds.

    For each ``n`` the frequency of ``miscoverage <= eps`` must lie in
    ``[1 - delta - c_band/sqrt(n) - 3s, 1 - delta + c_upper/sqrt(n) + 3s]``
    where ``s`` is the binomial Monte Carlo error at the nominal level. A side
    of the bound outside ``[0, 1]`` carries no information; such rows are
    flagged vacuous (they cannot fail on that side). Runs no trials.
    """
    env = config.env
    probe = np.linspace(-10.0, 10.0, 21).reshape(-1, 1)
    bound = gaussian_ratio_bound(env.target_policy(), env.behavior_policy(), probe)
    constants = theorem_constants(
        bound, config.gamma, config.epsilon, config.delta, config.delta_eps
    )
    sigma_mc = math.sqrt(config.delta * (1.0 - config.delta) / config.runs)
    rows = []
    for n in config.n_grid:
        l_hat = np.array([t.miscoverage for t in figure1.trials if t.n == n])
        freq = float(np.mean(l_hat <= config.epsilon))
        lower = 1.0 - config.delta - constants.c_band / math.sqrt(n) - 3.0 * sigma_mc
        upper = 1.0 - config.delta + constants.c_upper / math.sqrt(n) + 3.0 * sigma_mc
        vacuous = lower < 0.0 or upper > 1.0
        passed = lower <= freq <= upper
        rows.append((n, freq, lower, upper, vacuous, passed))
    return AggregateTable(BOUNDS_HEADER, tuple(rows), figure1.trials)


# ---------------------------------------------------------------------------
# figure 2: method comparison on shared per-seed datasets
# ---------------------------------------------------------------------------

def _copp_metrics(
    calib: CoppCalibration, epsilon: float, env: SynthEnvSpec
) -> tuple[float, float]:
    """Coverage and mean measure of COPP's sets under ``env``'s target law.

    Both are expectations over ``S ~ N(0, context_variance)``, taken by
    ``synthenv``'s Gauss-Hermite rule over the exact sets at the nodes;
    the coverage at a node is the target law's mass on its set. An unbounded
    set gives an infinite mean measure. The rule is not exact, because the
    set ends have kinks in ``s``: on ten default figure-2 runs it was within
    5e-6 in coverage and 1e-4 in length of a 48,001-point trapezoid rule.
    """
    nodes, weights = _hermite_rule()
    nodes = math.sqrt(env.context_variance) * nodes
    sets = copp_sets(calib, nodes, epsilon)
    s = nodes[sets.row]
    mass = target_reward_cdf(sets.hi, s, env) - target_reward_cdf(sets.lo, s, env)
    coverage = float(weights @ np.bincount(sets.row, weights=mass, minlength=nodes.size))
    return min(max(coverage, 0.0), 1.0), float(weights @ sets.measure())


def _figure2_trial(args) -> list[TrialReport]:
    config, master_seed, run = args
    env = config.env
    pe = env.target_policy()
    eps, gamma, n = config.epsilon, config.gamma, config.n
    rng_data = child_rng(master_seed, _TAG_FIGURE2, run, 0)
    rng_algo = child_rng(master_seed, _TAG_FIGURE2, run, 2)
    d = sample_logged(n, rng_data, env)
    params = config.pac_params()

    # Shared behavior-policy estimate (all methods run with estimated ratios).
    # One fit and one calibration pass give a PAC row per delta; the row at
    # config.delta would be pacopp_unknown's predictor on these streams.
    # COPP-RS takes the split-CP threshold of the same sorted scores. Every
    # row is trivial when the split is degenerate.
    split = rs_split_unknown(d, pe, gamma, rng_algo)
    model = _fit_split(split, params)
    preds, ordered = _calibration_pass(model, split, params, config.figure2_deltas)
    threshold = _split_cp_sorted(ordered, 1.0 - eps)
    thresholds = [pred.threshold for pred in preds] + [threshold]  # all widen one band
    *metrics, (miscoverage, length) = _predictor_metrics(preds[0], env, thresholds)
    reports = [_report("PACOPP", run, n, pred, env, metrics=m) for pred, m in zip(preds, metrics)]
    diag = preds[0].diagnostics
    copp_rs = TrialReport(
        method="COPP-RS", run=run, n=n, epsilon=eps, delta=float("nan"), gamma=gamma,
        miscoverage=miscoverage, mean_length=length, trivial=math.isinf(threshold),
        threshold=threshold, n_rs=diag.n_rs, m_cal=diag.m_cal, k=-1,
        tie_flag=diag.tie_flag, weight_violations=diag.weight_violations,
    )
    if split.degenerate:
        return reports + [copp_rs, replace(copp_rs, method="COPP", weight_violations=0)]

    # COPP: weighted CP on the raw calibration half, no rejection sampling.
    d1, d2 = split_dataset(d, gamma)
    qm_raw = fit_quantile_pair(d1, params)
    calib = copp_calibrate(d2, qm_raw, fit_reward_model(d1), split.behavior, pe)
    coverage, length = _copp_metrics(calib, eps, env)
    copp = replace(
        copp_rs, method="COPP", miscoverage=1.0 - coverage, mean_length=length,
        trivial=math.isinf(length), threshold=float("nan"), n_rs=0, m_cal=len(d2),
        tie_flag=False, weight_violations=0,
    )
    return reports + [copp_rs, copp]


def run_figure2(config: BenchConfig, master_seed: int) -> AggregateTable:
    """Coverage and length comparison of COPP, COPP-RS, and the PAC pipeline.

    All methods see identical per-seed datasets (shared data stream); the
    rejection-sampling methods share one acceptance stream and COPP uses
    none. Rows are per run; the ``delta`` column is empty for the two non-PAC
    methods.
    """
    args = [(config, master_seed, run) for run in range(config.runs)]
    nested = _map_trials(_figure2_trial, args, config.n_jobs)
    trials = [t for batch in nested for t in batch]
    rows = tuple(
        (t.method, t.delta, t.run, 1.0 - t.miscoverage, t.mean_length, t.trivial)
        for t in trials
    )
    return AggregateTable(FIGURE2_HEADER, rows, tuple(trials))


# ---------------------------------------------------------------------------
# oracle-interval convergence (theorem-4 trend)
# ---------------------------------------------------------------------------

def _symdiff_finite(lo1, hi1, lo2, hi2) -> np.ndarray:
    """Vectorized symmetric-difference measure for finite interval arrays.

    An empty first interval (``lo1 > hi1``, from a negative threshold) has length 0.
    """
    edge = np.abs(lo1 - lo2) + np.abs(hi1 - hi2)
    disjoint = np.minimum(hi1, hi2) < np.maximum(lo1, lo2)
    lengths = np.maximum(hi1 - lo1, 0.0) + (hi2 - lo2)
    return np.where(disjoint, lengths, edge)


def _theorem4_measure(pred: CalibratedPredictor, env: SynthEnvSpec) -> float:
    """Exact mean over the context of ``|C(S) symmetric-difference C*(S)|``, for a finite threshold.

    ``C`` is ``pred``'s interval and ``C*`` the oracle's. Their ends lie on six lines,
    ``lo - tau``, ``up + tau``, ``mid -+ tau`` (where the band crosses) and the two
    oracle lines, so the measure is affine between the lines' pairwise crossings.
    """
    tau, slope, p = pred.threshold, 1.0 + env.target_slope, pred.params
    (a_lo, b_lo), (a_up, b_up) = pred.model.w_lo.tolist(), pred.model.w_up.tolist()
    a_mid, b_mid = 0.5 * (a_lo + a_up), 0.5 * (b_lo + b_up)
    o_lo, o_up = (float(oracle_quantiles(np.zeros(1), q, env)[0]) for q in (p.eps_lo, p.eps_up))
    c = np.array([a_lo - tau, a_up + tau, a_mid - tau, a_mid + tau, o_lo, o_up])
    d = np.array([b_lo, b_up, b_mid, b_mid, slope, slope])
    with np.errstate(divide="ignore", invalid="ignore"):
        knots = (c[:, None] - c) / (d - d[:, None])

    def measure(contexts):  # the oracle lines as oracle_quantiles writes them
        s = contexts[:, 0]
        return _symdiff_finite(*pred.interval_batch(contexts), slope * s + o_lo, slope * s + o_up)

    return _mean_piecewise_affine(measure, knots, env)


def _theorem4_trial(args) -> float:
    pred = _known_predictor(*args)
    return math.inf if math.isinf(pred.threshold) else _theorem4_measure(pred, args[0].env)


def run_theorem4_convergence(config: BenchConfig, master_seed: int) -> AggregateTable:
    """Median over runs of the exact mean symmetric difference to the oracle interval.

    The trials at each ``n`` are figure 1's; trivial ones (infinite measure) are tallied apart.
    """
    runs = config.theorem4_runs
    args = [(config, master_seed, n, run) for n in config.theorem4_n_grid for run in range(runs)]
    measures = np.reshape(_map_trials(_theorem4_trial, args, config.n_jobs), (-1, runs))
    rows = []
    for n, row in zip(config.theorem4_n_grid, measures):
        finite = row[np.isfinite(row)]
        rows.append((n, runs, runs - finite.size, np.median(finite) if finite.size else math.inf))
    return AggregateTable(THEOREM4_HEADER, tuple(rows))


# ---------------------------------------------------------------------------
# unknown-policy sweeps (estimated behavior policy)
# ---------------------------------------------------------------------------

def default_finite_class(env: SynthEnvSpec) -> FinitePolicyClass:
    """Five Gaussian members sharing the target's mean slope, truth included.

    Shared slope keeps every member's density ratio against the target policy
    bounded over the whole context space, so the class admits a finite uniform
    ratio bound.
    """
    pe = env.target_policy()
    s = env.behavior_slope
    v = env.behavior_variance
    members = (
        env.behavior_policy(),
        GaussianLinearPolicy(np.array([s]), 1.0, v),
        GaussianLinearPolicy(np.array([s]), -1.0, v),
        GaussianLinearPolicy(np.array([s]), 0.0, 1.5 * v),
        GaussianLinearPolicy(np.array([s]), 0.5, 2.0 * v),
    )
    probe = np.linspace(-10.0, 10.0, 41).reshape(-1, 1)
    return finite_policy_class(members, pe, probe)


def _unknown_trial(args) -> TrialReport:
    config, master_seed, run, method, subtag, finite_class = args
    env = config.env
    pe = env.target_policy()
    params = config.pac_params()
    rng_data = child_rng(master_seed, _TAG_UNKNOWN, subtag, run, 0)
    rng_algo = child_rng(master_seed, _TAG_UNKNOWN, subtag, run, 1)
    d = sample_logged(config.n, rng_data, env)
    split = rs_split_unknown(d, pe, params.gamma, rng_algo, finite_class)
    pred = calibrate_split(split, params)
    delta_w = float("nan") if split.behavior is None else weight_error(split.behavior, env)
    return _report(f"PACOPP-{method}", run, config.n, pred, env, delta_w_hat=delta_w)


def run_unknown_sweep(
    config: BenchConfig, master_seed: int, method: str = "gaussian"
) -> AggregateTable:
    """Seeded trials of the estimated-behavior-policy pipeline.

    ``method`` selects the estimator ("gaussian" or "mle" over the default
    finite class). Each run reports the mean absolute weight error of its
    estimate (``synthenv.weight_error``), or NaN when the run estimated none.
    """
    finite_class = config.finite_class(method)  # raises for an unknown method
    subtag = 0 if method == "gaussian" else 1
    args = [(config, master_seed, run, method, subtag, finite_class) for run in range(config.runs)]
    trials = _map_trials(_unknown_trial, args, config.n_jobs)
    rows = tuple(
        (t.method, t.run, t.n, t.miscoverage, t.mean_length, t.trivial, t.delta_w_hat)
        for t in trials
    )
    header = ("method", "run", "n", "miscoverage", "mean_length", "trivial_flag", "delta_w_hat")
    return AggregateTable(header, rows, tuple(trials))


# ---------------------------------------------------------------------------
# single trial
# ---------------------------------------------------------------------------

def simulate_trial(config: BenchConfig, master_seed: int, algo: str = "known") -> TrialReport:
    """One end-to-end trial on the synthetic environment."""
    if algo == "known":
        return _known_trial((config, master_seed, config.n, 0))
    if algo == "unknown":
        return _unknown_trial((config, master_seed, 0, "gaussian", 9, None))
    raise ValueError("algo must be 'known' or 'unknown'")
