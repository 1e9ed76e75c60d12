"""Acceptance suite: every criterion at its stated tolerance, one per test.

The heavy sweeps (500 seeded runs each; exact miscoverage for the known- and
unknown-policy trials and the figure-2 PAC and COPP-RS rows, Gauss-Hermite
quadrature of exact sets for the COPP rows, no test sets) are shared across
criteria through module-scoped fixtures. Frequencies carry 3-sigma
binomial Monte Carlo tolerances at the nominal levels. Run with ``-s`` to see
one pass/fail line per criterion.
"""

import math
import os

import numpy as np
import pytest
from scipy.stats import binom, ks_2samp

from pacope.bench import BenchConfig, default_finite_class, run_figure1, run_figure2, run_theorem4_convergence, run_unknown_sweep
from pacope.calibrate import binomial_quantile_k, pac_threshold
from pacope.core import child_rng
from pacope.rejection import gaussian_ratio_bound, rejection_sample
from pacope.synthenv import DEFAULT_ENV, sample_logged, sample_target, theorem_constants
from test_calibrate import pac_threshold_argmin_oracle

ACCEPT_SEED = 20260810
RUNS = 500
N_JOBS = min(2, os.cpu_count() or 1)
EPSILON, DELTA, GAMMA = 0.2, 0.1, 0.5


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def figure1_table():
    config = BenchConfig(runs=RUNS, n_jobs=N_JOBS, delta_eps_grid=(0.05, 1.0))
    return run_figure1(config, ACCEPT_SEED)


@pytest.fixture(scope="module")
def figure2_table():
    config = BenchConfig(runs=RUNS, n_jobs=N_JOBS)
    return run_figure2(config, ACCEPT_SEED)


def _freq(table, n, delta_eps):
    for row in table.rows:
        if row[0] == n and row[1] == delta_eps:
            return row[3]
    raise KeyError((n, delta_eps))


def test_a1_pac_validity(figure1_table):
    # n=2000, eps=0.2, delta=0.1, gamma=0.5: fraction of runs with
    # miscoverage <= 0.2 at least 0.90 - 0.04 (3 sigma at p=0.9, 500 runs).
    freq = _freq(figure1_table, 2000, 1.0)
    tol = 3 * math.sqrt(0.9 * 0.1 / RUNS)
    _verdict("A1", freq >= 0.9 - tol, f"PAC frequency {freq:.4f} >= {0.9 - tol:.4f}")


def test_a2_band_lower_bound_and_trend(figure1_table):
    constants = theorem_constants(2.0, GAMMA, EPSILON, DELTA, 0.05)
    sigma = math.sqrt(DELTA * (1 - DELTA) / RUNS)
    band_2000 = _freq(figure1_table, 2000, 0.05)
    lower = 1 - DELTA - constants.c_band / math.sqrt(2000) - 3 * sigma
    ok_bound = band_2000 >= lower
    band_500 = _freq(figure1_table, 500, 0.05)
    band_4000 = _freq(figure1_table, 4000, 0.05)
    ok_trend = band_4000 > band_500
    _verdict(
        "A2",
        ok_bound and ok_trend,
        f"band freq {band_2000:.4f} >= {lower:.4f}; "
        f"trend {band_4000:.4f} (n=4000) > {band_500:.4f} (n=500)",
    )


def test_a3_upper_bound(figure1_table):
    constants = theorem_constants(2.0, GAMMA, EPSILON, DELTA, 0.05)
    sigma = math.sqrt(DELTA * (1 - DELTA) / RUNS)
    details = []
    ok = True
    for n in (500, 1000, 2000, 4000):
        freq = _freq(figure1_table, n, 1.0)
        upper = 1 - DELTA + constants.c_upper / math.sqrt(n) + 3 * sigma
        vacuous = upper > 1.0
        ok = ok and freq <= upper
        details.append(f"n={n}: {freq:.4f} <= {upper:.4f}{' (vacuous)' if vacuous else ''}")
    _verdict("A3", ok, "; ".join(details))


def test_a4_figure2_reproduction(figure2_table):
    trials = figure2_table.trials
    copp = np.array([1 - t.miscoverage for t in trials if t.method == "COPP"])
    copp_rs = np.array([1 - t.miscoverage for t in trials if t.method == "COPP-RS"])
    details = [f"COPP mean {copp.mean():.4f} < 0.80", f"COPP-RS mean {copp_rs.mean():.4f} in [0.79, 0.81]"]
    ok = copp.mean() < 0.80 and 0.79 <= copp_rs.mean() <= 0.81
    thresholds_by_run: dict[int, dict[float, float]] = {}
    for delta in (0.5, 0.25, 0.1, 0.01):
        coverage = np.array([
            1 - t.miscoverage for t in trials if t.method == "PACOPP" and t.delta == delta
        ])
        freq = float(np.mean(coverage >= 1 - EPSILON))
        need = (1 - delta) - 3 * math.sqrt(delta * (1 - delta) / RUNS)
        ok = ok and freq >= need
        details.append(f"PAC-{delta}: {freq:.4f} >= {need:.4f}")
    for t in trials:
        if t.method == "PACOPP":
            thresholds_by_run.setdefault(t.run, {})[t.delta] = t.threshold
    mono = all(
        b[0.01] >= b[0.1] >= b[0.25] >= b[0.5] for b in thresholds_by_run.values()
    )
    ok = ok and mono
    details.append(f"threshold monotone in all {len(thresholds_by_run)} runs: {mono}")
    _verdict("A4", ok, "; ".join(details))


def test_a5_rejection_sampling_distribution():
    # Accepted rewards vs 50,000 direct target draws: the KS test at level
    # 0.01 rejects in at most 1 of 10 seeds.
    env = DEFAULT_ENV
    pe, pb = env.target_policy(), env.behavior_policy()
    rejections = 0
    for seed in range(10):
        d = sample_logged(2000, child_rng(ACCEPT_SEED, 5, seed, 0), env)
        bound = gaussian_ratio_bound(pe, pb, d.contexts)
        rs = rejection_sample(d, pe, pb, bound, child_rng(ACCEPT_SEED, 5, seed, 1))
        direct = sample_target(50000, child_rng(ACCEPT_SEED, 5, seed, 2), env)
        if ks_2samp(rs.rewards, direct.rewards).pvalue < 0.01:
            rejections += 1
    _verdict("A5", rejections <= 1, f"{rejections} rejection(s) of 10 at level 0.01")


def test_a6_exact_combinatorics():
    # Cutoff vs brute-force CDF summation, exact equality over all M <= 300
    # on a tie-free 20x20 grid; threshold vs its brute-force oracle on
    # 10,000 random score lists.
    eps_grid = np.linspace(0.05, 0.95, 20)
    delta_grid = np.linspace(0.06, 0.92, 20)
    mismatches = 0
    for m in range(0, 301):
        cdfs = None if m == 0 else np.cumsum(
            binom.pmf(np.arange(0, m), m, eps_grid[:, None]), axis=1
        )
        for i, eps in enumerate(eps_grid):
            for delta in delta_grid:
                if m == 0:
                    expected = -1
                else:
                    hits = np.flatnonzero(cdfs[i] <= delta)
                    expected = int(hits[-1]) if hits.size else -1
                if binomial_quantile_k(m, float(eps), float(delta)) != expected:
                    mismatches += 1
    rng = np.random.default_rng(ACCEPT_SEED)
    threshold_mismatches = 0
    for _ in range(10000):
        m = int(rng.integers(1, 201))
        scores = rng.normal(size=m) * float(rng.uniform(0.5, 5.0))
        eps = float(rng.uniform(0.05, 0.5))
        delta = float(rng.uniform(0.05, 0.5))
        a = pac_threshold(scores, eps, delta)
        b = pac_threshold_argmin_oracle(scores, eps, delta)
        if not (a == b or (math.isinf(a) and math.isinf(b))):
            threshold_mismatches += 1
    ok = mismatches == 0 and threshold_mismatches == 0
    _verdict(
        "A6",
        ok,
        f"cutoff mismatches {mismatches}/120400; threshold mismatches {threshold_mismatches}/10000",
    )


def test_a7_oracle_convergence_trend():
    config = BenchConfig(theorem4_runs=40, n_jobs=N_JOBS)
    table = run_theorem4_convergence(config, ACCEPT_SEED)
    medians = {row[0]: row[3] for row in table.rows}
    ok = medians[500] > medians[2000] > medians[8000] and medians[8000] < 2.0
    _verdict(
        "A7",
        ok,
        f"medians {medians[500]:.3f} > {medians[2000]:.3f} > {medians[8000]:.3f}; "
        f"n=8000 median < 2.0",
    )


def test_a8_unknown_policy_mle():
    # MLE over the 5-member class containing the truth: PAC frequency at the
    # inflated level must respect (1 - delta0)(1 - delta) - 3 sigma.
    config = BenchConfig(runs=RUNS, n_jobs=N_JOBS)
    sweep = run_unknown_sweep(config, ACCEPT_SEED, method="mle")
    pclass = default_finite_class(config.env)
    delta0 = 0.1
    n1 = math.floor((1 - GAMMA) * config.n)
    inflated = EPSILON + 2 * pclass.ratio_bound * math.sqrt(
        2 * math.log(len(pclass) / delta0) / n1
    )
    miscoverage = np.array([t.miscoverage for t in sweep.trials])
    freq = float(np.mean(miscoverage <= inflated))
    target = (1 - delta0) * (1 - DELTA)
    need = target - 3 * math.sqrt(target * (1 - target) / RUNS)
    _verdict(
        "A8",
        freq >= need,
        f"B_class={pclass.ratio_bound:.3f}, inflated level {inflated:.4f}, "
        f"frequency {freq:.4f} >= {need:.4f}",
    )
