"""Experiment harness: seeded trial sweeps, coverage metrics, figure tables,
and theorem-bound checks.

Every sweep derives one child stream per (tag, grid point, run, substream)
from the master seed, so results are bit-identical across reruns and across
serial/parallel execution; workers share nothing mutable and the result table
is assembled in trial-index order regardless of completion order.

Trials call the library pipelines and add no statistics of their own: known
trials run ``pacopp_known``; unknown trials and figure 2 build the
unknown-policy sampling stage with ``behavior.rs_split_unknown`` and hand it
to ``calibrate.calibrate_split``, so they compute exactly what
``pacopp_unknown`` does on the same streams. Figure 2's COPP-RS row reuses
that split's quantile pair and scores, and its COPP row comes from the public
COPP API of ``baselines`` with the split's behavior estimate; the COPP
weights are exact and draw no randomness: one calibration, the test-set log
weights and thresholds, and one batched hull sweep over the
``length_subsample`` first test contexts.

Desk-scale defaults (500 runs, 10,000 test points) replace the full-scale run
counts of the original experiments; every asserted frequency carries a
3-sigma Monte Carlo tolerance. Full scale is reachable through the config.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .baselines import (
    CoppConfig,
    copp_calibrate,
    copp_hull_batch,
    copp_log_weights,
    copp_thresholds,
    fit_reward_model,
)
from .behavior import (
    FinitePolicyClass,
    PolicyFitConfig,
    estimate_weight_error,
    finite_policy_class,
    rs_split_unknown,
)
from .calibrate import (
    CalibratedPredictor,
    binomial_quantile_k,
    calibrate_split,
    nonconformity,
    pac_threshold,
    pacopp_known,
    split_cp_threshold,
)
from .core import (
    GaussianLinearPolicy,
    PacParams,
    TargetDataset,
    child_rng,
    split_dataset,
)
from .quantile import fit_quantile_pair
from .rejection import RsDataset, gaussian_ratio_bound
from .synthenv import (
    DEFAULT_ENV,
    SynthEnvSpec,
    oracle_quantiles,
    sample_logged,
    sample_target,
    theorem_constants,
)

__all__ = [
    "BenchConfig",
    "TrialReport",
    "AggregateTable",
    "simulate_trial",
    "run_figure1",
    "run_figure2",
    "check_theorem_bounds",
    "run_theorem4_convergence",
    "run_unknown_sweep",
    "default_finite_class",
]

_TAG_KNOWN = 1
_TAG_FIGURE2 = 2
_TAG_THEOREM4 = 3
_TAG_UNKNOWN = 4

FIGURE1_HEADER = ("n", "delta_eps", "runs", "band_freq", "stderr")
FIGURE1_TRIALS_HEADER = ("n", "run", "miscoverage", "mean_length", "trivial_flag")
FIGURE2_HEADER = ("method", "delta", "run", "coverage", "mean_length", "trivial_flag")
BOUNDS_HEADER = ("n", "freq", "lower", "upper", "vacuous", "pass")
THEOREM4_HEADER = ("n", "runs", "contexts", "n_trivial", "median_measure")


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for all sweeps; field names double as config-file keys.

    ``epochs`` and ``policy_epochs`` are accepted and ignored: the quantile,
    behavior-policy and COPP reward fits are exact, with no epochs to set.
    ``copp_mc_samples`` is accepted and ignored too: the COPP weights are
    exact, with no Monte Carlo draws to set.
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
    theorem4_contexts: int = 250
    policy_margin: float = 0.05
    policy_epochs: int = 600
    weight_error_mc: int = 0
    n_jobs: int = 1
    env: SynthEnvSpec = DEFAULT_ENV

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.test_points < 1:
            raise ValueError("test_points must be >= 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        for name in ("length_subsample", "theorem4_runs", "theorem4_contexts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def pac_params(self, delta: float | None = None) -> PacParams:
        return PacParams(self.epsilon, self.delta if delta is None else delta, self.gamma)

    def copp_config(self) -> CoppConfig:
        return CoppConfig(self.copp_grid_size)

    def policy_fit_config(self, method: str = "gaussian") -> PolicyFitConfig:
        """Behavior-policy estimator; ``mle`` selects from :func:`default_finite_class`."""
        return PolicyFitConfig(
            finite_class=default_finite_class(self.env) if method == "mle" else None,
            min_variance_margin=self.policy_margin,
        )

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
    """Per-run record: empirical miscoverage, interval length, diagnostics.

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

    def column(self, name: str) -> list:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _predictor_metrics(pred: CalibratedPredictor, test: TargetDataset) -> tuple[float, float]:
    lo, hi = pred.interval_batch(test.contexts)
    r = test.rewards
    miscoverage = float(np.mean((r < lo) | (r > hi)))
    length = math.inf if math.isinf(pred.threshold) else float(np.mean(np.maximum(hi - lo, 0.0)))
    return miscoverage, length


def _report(
    method: str,
    run: int,
    n: int,
    epsilon: float,
    delta: float,
    gamma: float,
    pred: CalibratedPredictor,
    test: TargetDataset,
    delta_w_hat: float = float("nan"),
) -> TrialReport:
    miscoverage, length = _predictor_metrics(pred, test)
    d = pred.diagnostics
    return TrialReport(
        method=method,
        run=run,
        n=n,
        epsilon=epsilon,
        delta=delta,
        gamma=gamma,
        miscoverage=miscoverage,
        mean_length=length,
        trivial=d.trivial or math.isinf(pred.threshold),
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
    chunk = max(1, len(argslist) // (4 * n_jobs))
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, argslist, chunksize=chunk))


# ---------------------------------------------------------------------------
# known-policy trials (figure 1 and bound checks share these streams)
# ---------------------------------------------------------------------------

def _known_trial(args) -> TrialReport:
    config, master_seed, n, run = args
    env = config.env
    params = config.pac_params()
    d = sample_logged(n, child_rng(master_seed, _TAG_KNOWN, n, run, 0), env)
    pred = pacopp_known(
        d,
        env.behavior_policy(),
        env.target_policy(),
        params,
        child_rng(master_seed, _TAG_KNOWN, n, run, 1),
    )
    test = sample_target(config.test_points, child_rng(master_seed, _TAG_KNOWN, n, run, 2), env)
    return _report("PACOPP", run, n, config.epsilon, config.delta, config.gamma, pred, test)


def _known_sweep(config: BenchConfig, master_seed: int, n_values) -> list[TrialReport]:
    args = [(config, master_seed, n, run) for n in n_values for run in range(config.runs)]
    return _map_trials(_known_trial, args, config.n_jobs)


def run_figure1(config: BenchConfig, master_seed: int) -> AggregateTable:
    """Band frequencies of the known-policy pipeline over the (n, half-width) grid.

    Trials are shared across band half-widths for the same ``n``; each row
    reports the empirical frequency of ``eps - delta_eps < miscoverage <= eps``
    with its binomial standard error.
    """
    trials = _known_sweep(config, master_seed, config.n_grid)
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


def check_theorem_bounds(config: BenchConfig, master_seed: int) -> AggregateTable:
    """Empirical PAC frequency against the finite-sample frequency bounds.

    For each ``n`` the frequency of ``miscoverage <= eps`` must lie in
    ``[1 - delta - c_band/sqrt(n) - 3s, 1 - delta + c_upper/sqrt(n) + 3s]``
    where ``s`` is the binomial Monte Carlo error at the nominal level. A side
    of the bound outside ``[0, 1]`` carries no information; such rows are
    flagged vacuous (they cannot fail on that side).
    """
    env = config.env
    probe = np.linspace(-10.0, 10.0, 21).reshape(-1, 1)
    bound = gaussian_ratio_bound(env.target_policy(), env.behavior_policy(), probe)
    constants = theorem_constants(
        bound, config.gamma, config.epsilon, config.delta, config.delta_eps
    )
    sigma_mc = math.sqrt(config.delta * (1.0 - config.delta) / config.runs)
    trials = _known_sweep(config, master_seed, config.n_grid)
    rows = []
    for n in config.n_grid:
        l_hat = np.array([t.miscoverage for t in trials if t.n == n])
        freq = float(np.mean(l_hat <= config.epsilon))
        lower = 1.0 - config.delta - constants.c_band / math.sqrt(n) - 3.0 * sigma_mc
        upper = 1.0 - config.delta + constants.c_upper / math.sqrt(n) + 3.0 * sigma_mc
        vacuous = lower < 0.0 or upper > 1.0
        passed = lower <= freq <= upper
        rows.append((n, freq, lower, upper, vacuous, passed))
    return AggregateTable(BOUNDS_HEADER, tuple(rows), tuple(trials))


# ---------------------------------------------------------------------------
# figure 2: method comparison on shared per-seed datasets
# ---------------------------------------------------------------------------

def _figure2_trial(args) -> list[TrialReport]:
    config, master_seed, run = args
    env = config.env
    pe = env.target_policy()
    eps, gamma, n = config.epsilon, config.gamma, config.n
    rng_data = child_rng(master_seed, _TAG_FIGURE2, run, 0)
    rng_test = child_rng(master_seed, _TAG_FIGURE2, run, 1)
    rng_algo = child_rng(master_seed, _TAG_FIGURE2, run, 2)
    d = sample_logged(n, rng_data, env)
    test = sample_target(config.test_points, rng_test, env)
    params = config.pac_params()

    # Shared behavior-policy estimate (all methods run with estimated ratios).
    # The PAC row at config.delta is pacopp_unknown's predictor on these
    # streams; every row is trivial when it is.
    split = rs_split_unknown(d, pe, gamma, config.policy_fit_config(), rng_algo)
    pred = calibrate_split(split, params)
    diag = pred.diagnostics
    common = dict(
        run=run, n=n, epsilon=eps, gamma=gamma, n_rs=diag.n_rs, m_cal=diag.m_cal,
        tie_flag=diag.tie_flag, weight_violations=diag.weight_violations,
    )
    if diag.trivial:
        methods = [("PACOPP", delta) for delta in config.figure2_deltas]
        methods += [("COPP-RS", float("nan")), ("COPP", float("nan"))]
        return [
            TrialReport(
                method=method, delta=delta, miscoverage=0.0, mean_length=math.inf,
                trivial=True, threshold=math.inf, k=-1,
                **(dict(common, weight_violations=0) if method == "COPP" else common),
            )
            for method, delta in methods
        ]

    # The other deltas and COPP-RS reuse the quantile pair and its scores.
    scores_cal = nonconformity(pred.model, split.cal.contexts, split.cal.rewards)
    qlo_t, qup_t = pred.model.quantiles(test.contexts)
    scores_test = np.maximum(qlo_t - test.rewards, test.rewards - qup_t)
    base_length = float(np.mean(qup_t - qlo_t))
    reports: list[TrialReport] = []
    for delta in config.figure2_deltas:
        threshold = pac_threshold(scores_cal, eps, delta)
        k = binomial_quantile_k(diag.m_cal, eps, delta)
        trivial = math.isinf(threshold)
        coverage = float(np.mean(scores_test <= threshold))
        length = math.inf if trivial else base_length + 2.0 * threshold
        reports.append(TrialReport(
            method="PACOPP", delta=delta, miscoverage=1.0 - coverage,
            mean_length=length, trivial=trivial, threshold=threshold, k=k, **common,
        ))
    threshold = split_cp_threshold(scores_cal, 1.0 - eps)
    trivial = math.isinf(threshold)
    coverage = float(np.mean(scores_test <= threshold))
    reports.append(TrialReport(
        method="COPP-RS", delta=float("nan"), miscoverage=1.0 - coverage,
        mean_length=math.inf if trivial else base_length + 2.0 * threshold,
        trivial=trivial, threshold=threshold, k=-1, **common,
    ))

    # COPP: weighted CP on the raw calibration half, no rejection sampling.
    pbhat = split.behavior
    d1, d2 = split_dataset(d, gamma)
    rm = fit_reward_model(d1)
    qm_raw = fit_quantile_pair(RsDataset(d1.contexts, d1.rewards, np.arange(len(d1))), params)
    calib = copp_calibrate(d2, qm_raw, rm, pbhat, pe, config.copp_config())
    test_log_weights = copp_log_weights(rm, pbhat, pe, test.contexts, test.rewards)
    thresholds = copp_thresholds(calib, test_log_weights, 1.0 - eps)
    qlo_r, qup_r = qm_raw.quantiles(test.contexts)
    scores_test_raw = np.maximum(qlo_r - test.rewards, test.rewards - qup_r)
    coverage = float(np.mean(scores_test_raw <= thresholds))
    hulls = copp_hull_batch(calib, test.contexts[:config.length_subsample], eps)
    reports.append(TrialReport(
        method="COPP", run=run, n=n, epsilon=eps, delta=float("nan"), gamma=gamma,
        miscoverage=1.0 - coverage, mean_length=float(np.mean(hulls.lengths())),
        trivial=False, threshold=float("nan"), n_rs=0, m_cal=len(d2), k=-1,
        tie_flag=False, weight_violations=0,
    ))
    return reports


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
    """Vectorized symmetric-difference measure for finite interval arrays."""
    edge = np.abs(lo1 - lo2) + np.abs(hi1 - hi2)
    disjoint = np.minimum(hi1, hi2) < np.maximum(lo1, lo2)
    lengths = (hi1 - lo1) + (hi2 - lo2)
    return np.where(disjoint, lengths, edge)


def _theorem4_trial(args):
    config, master_seed, n, run = args
    env = config.env
    params = config.pac_params()
    d = sample_logged(n, child_rng(master_seed, _TAG_THEOREM4, n, run, 0), env)
    pred = pacopp_known(
        d, env.behavior_policy(), env.target_policy(), params,
        child_rng(master_seed, _TAG_THEOREM4, n, run, 1),
    )
    rng_ctx = child_rng(master_seed, _TAG_THEOREM4, n, run, 2)
    contexts = (
        math.sqrt(env.context_variance) * rng_ctx.standard_normal(config.theorem4_contexts)
    ).reshape(-1, 1)
    if math.isinf(pred.threshold):
        return n, True, None
    lo, hi = pred.interval_batch(contexts)
    olo = oracle_quantiles(contexts, params.eps_lo, env)
    oup = oracle_quantiles(contexts, params.eps_up, env)
    return n, False, _symdiff_finite(lo, hi, olo, oup)


def run_theorem4_convergence(config: BenchConfig, master_seed: int) -> AggregateTable:
    """Median symmetric difference to the oracle interval, per sample size.

    Trivial-interval trials (infinite measure) are tallied separately and
    excluded from the median.
    """
    args = [
        (config, master_seed, n, run)
        for n in config.theorem4_n_grid
        for run in range(config.theorem4_runs)
    ]
    results = _map_trials(_theorem4_trial, args, config.n_jobs)
    rows = []
    for n in config.theorem4_n_grid:
        measures = [m for (nn, trivial, m) in results if nn == n and not trivial]
        n_trivial = sum(1 for (nn, trivial, _) in results if nn == n and trivial)
        pooled = np.concatenate(measures) if measures else np.empty(0)
        median = float(np.median(pooled)) if pooled.size else math.inf
        rows.append((n, config.theorem4_runs, config.theorem4_contexts, n_trivial, median))
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
    config, master_seed, run, method, subtag = args
    env = config.env
    pe = env.target_policy()
    params = config.pac_params()
    rng_data = child_rng(master_seed, _TAG_UNKNOWN, subtag, run, 0)
    rng_algo = child_rng(master_seed, _TAG_UNKNOWN, subtag, run, 1)
    rng_test = child_rng(master_seed, _TAG_UNKNOWN, subtag, run, 2)
    d = sample_logged(config.n, rng_data, env)
    split = rs_split_unknown(d, pe, params.gamma, config.policy_fit_config(method), rng_algo)
    pred = calibrate_split(split, params)
    test = sample_target(config.test_points, rng_test, env)
    delta_w = float("nan")
    if config.weight_error_mc > 0 and split.behavior is not None:
        sampler = lambda m, rng: (
            math.sqrt(env.context_variance) * rng.standard_normal(m)
        ).reshape(-1, 1)
        delta_w = estimate_weight_error(
            split.behavior, env.behavior_policy(), pe, config.weight_error_mc,
            child_rng(master_seed, _TAG_UNKNOWN, subtag, run, 3), sampler,
        )
    return _report(
        f"PACOPP-{method}", run, config.n, config.epsilon, config.delta,
        config.gamma, pred, test, delta_w_hat=delta_w,
    )


def run_unknown_sweep(
    config: BenchConfig, master_seed: int, method: str = "gaussian"
) -> AggregateTable:
    """Seeded trials of the estimated-behavior-policy pipeline.

    ``method`` selects the estimator ("gaussian" or "mle" over the default
    finite class). Set ``config.weight_error_mc`` to also estimate the mean
    absolute weight error per run (synthetic mode diagnostic).
    """
    if method not in ("gaussian", "mle"):
        raise ValueError("method must be 'gaussian' or 'mle'")
    subtag = 0 if method == "gaussian" else 1
    args = [(config, master_seed, run, method, subtag) for run in range(config.runs)]
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
        return _unknown_trial((config, master_seed, 0, "gaussian", 9))
    raise ValueError("algo must be 'known' or 'unknown'")
