"""Calibrating when the behavior policy itself must be estimated.

The logged data is split first; ``estimate_behavior`` fits a Gaussian policy
(affine mean, constant variance) on the training half, and both halves are
rejection-sampled with the *estimated* density ratio. The coverage guarantee then degrades by
the mean absolute weight error, which this synthetic setting computes
against the true policy, in closed form over the action and by quadrature
over the context (``synthenv.weight_error``).

Also shown: maximum-likelihood selection from a finite policy class that
contains the truth, where the degradation admits an explicit bound.
"""

from pacope import (
    DEFAULT_ENV,
    PacParams,
    child_rng,
    estimate_behavior,
    mle_policy,
    pacopp_unknown,
    sample_logged,
    split_dataset,
    weight_error,
)
from pacope.bench import default_finite_class
from pacope.synthenv import exact_interval_metrics

SEED = 19
env = DEFAULT_ENV
pe = env.target_policy()

logged = sample_logged(2000, child_rng(SEED, 0), env)
d1, _ = split_dataset(logged, 0.5)

print("true behavior policy: mean slope 0.25, variance 4")
pbhat, _ = estimate_behavior(d1, pe)
print(f"fitted from {len(d1)} samples: slope {pbhat.slope[0]:+.4f}, "
      f"intercept {pbhat.intercept:+.4f}, variance {pbhat.variance:.4f}")

delta_w_hat = weight_error(pbhat, env)
print(f"mean absolute weight error (vs truth): {delta_w_hat:.4f}")
print("-> nominal miscoverage 0.2 is guaranteed with slack of that size\n")

params = PacParams(0.2, 0.1, 0.5)
pred = pacopp_unknown(logged, pe, params, child_rng(SEED, 2))
miss, _ = exact_interval_metrics(pred.model.w_lo, pred.model.w_up, pred.threshold, env)
print(f"estimated-policy pipeline: accepted {pred.diagnostics.n_rs} samples, "
      f"threshold {pred.threshold:+.4f}, exact miscoverage {miss:.4f}")
degraded = 0.2 + delta_w_hat
print(f"(degraded level 0.2 + {delta_w_hat:.4f} = {degraded:.4f}; this seed is "
      f"{'within' if miss <= degraded else 'above'} it. The bound holds with probability "
      f">= 1 - delta = 0.9 over the logged data)")

pclass = default_finite_class(env)
picked = mle_policy(pclass, d1)
print(f"\nfinite-class MLE over {len(pclass)} members (uniform ratio bound "
      f"{pclass.ratio_bound:.3f}): picked variance {picked.variance}, "
      f"intercept {picked.intercept} -> {'the truth' if picked is pclass.policies[0] else 'an impostor'}")
