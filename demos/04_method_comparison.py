"""Desk-scale method comparison: weighted CP vs rejection-sampling methods.

Three algorithms on identical per-seed datasets, all with an *estimated*
behavior policy:

* COPP: weighted conformal prediction whose weights go through a fitted
  conditional Gaussian reward model. The true reward is a two-component
  mixture, so the model is misspecified and coverage slips below nominal.
* COPP-RS: rejection sampling plus the plain empirical-quantile threshold;
  marginally valid (about 80% coverage on average) but with no control over
  the probability of landing below nominal on a given dataset.
* The PAC pipeline at several confidence levels: coverage at least 80% in
  roughly a (1 - delta) fraction of reruns, trading a little width for it.

Each row's coverage and mean length are expectations over the context and
reward under the target policy, computed without a test set: exactly for the
rejection-sampling rows, and for COPP from its exact accepted sets at 32
Gauss-Hermite context nodes.

This is a reduced run (60 seeds); the benchmark CLI runs the full table.
"""

import numpy as np

from pacope import BenchConfig, run_figure2

config = BenchConfig(runs=60, n_jobs=2)
print(f"running {config.runs} seeded comparisons at n = {config.n} "
      f"(a few seconds of compute)...\n")
table = run_figure2(config, master_seed=20260810)

print(f"{'method':>10} | {'mean cov':>8} | {'P[cov >= 0.8]':>13} | {'mean length':>11}")
for method, delta in (("COPP", None), ("COPP-RS", None),
                      ("PACOPP", 0.5), ("PACOPP", 0.25), ("PACOPP", 0.1), ("PACOPP", 0.01)):
    rows = [t for t in table.trials
            if t.method == method and (delta is None or t.delta == delta)]
    coverage = np.array([1 - t.miscoverage for t in rows])
    lengths = np.array([t.mean_length for t in rows])
    finite = np.isfinite(lengths)
    label = method if delta is None else f"PAC-{delta}"
    print(f"{label:>10} | {coverage.mean():8.4f} | {np.mean(coverage >= 0.8):13.4f} "
          f"| {lengths[finite].mean():11.3f}")

print("\nreading: COPP's mean coverage sits below 0.80; COPP-RS averages 0.80 "
      "but misses it on roughly half the reruns; the PAC rows push the "
      "attainment probability toward 1 - delta at a modest cost in length.")
