"""Build a PAC prediction interval for a target policy from logged data.

The data was logged by a behavior policy that explores widely (action
variance 4); we want an interval for the reward a *narrower* target policy
(action variance 1) would obtain at a new context, with the guarantee that,
with 90% confidence over the logged data, the interval misses at most 20% of
target rewards.

Pipeline: rejection-sample the logged triples so the kept (context, reward)
pairs follow the target-policy law, fit conditional quantiles on one half,
then calibrate an additive threshold on the other half using an exact
binomial cutoff.
"""

import numpy as np

from pacope import (
    DEFAULT_ENV,
    PacParams,
    child_rng,
    oracle_quantiles,
    pacopp_known,
    sample_logged,
    sample_target,
)

SEED = 7

env = DEFAULT_ENV
pb = env.behavior_policy()   # A | s ~ N(s/4, 4), what logged the data
pe = env.target_policy()     # A | s ~ N(s/4, 1), what we want to evaluate

print("drawing 2,000 logged triples under the behavior policy...")
logged = sample_logged(2000, child_rng(SEED, 0), env)

params = PacParams(epsilon=0.2, delta=0.1, gamma=0.5)
predictor = pacopp_known(logged, pb, pe, params, child_rng(SEED, 1))

d = predictor.diagnostics
print(f"rejection sampling kept {d.n_rs} of {len(logged)} samples "
      f"(ratio bound B = {d.bound:.1f})")
print(f"calibration set M = {d.m_cal}, binomial cutoff k = {d.k}, "
      f"threshold = {predictor.threshold:+.4f}\n")

print("intervals at a few contexts (vs the analytic oracle interval):")
contexts = np.array([-4.0, -1.0, 0.0, 2.0, 5.0])
oracle_lo = oracle_quantiles(contexts, params.eps_lo, env)
oracle_up = oracle_quantiles(contexts, params.eps_up, env)
for s, o_lo, o_up in zip(contexts, oracle_lo, oracle_up):
    iv = predictor.predict(s)
    print(f"  s = {s:+.1f}: predicted [{iv.lo:+7.3f}, {iv.hi:+7.3f}]   "
          f"oracle [{o_lo:+7.3f}, {o_up:+7.3f}]")

print("\nevaluating on 10,000 fresh target-policy draws...")
test = sample_target(10000, child_rng(SEED, 2), env)
lo, hi = predictor.interval_batch(test.contexts)
miscoverage = float(np.mean((test.rewards < lo) | (test.rewards > hi)))
print(f"empirical miscoverage {miscoverage:.4f} (nominal level 0.2; the PAC "
      f"guarantee bounds it by 0.2 in >= 90% of reruns)")
