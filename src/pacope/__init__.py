"""PAC prediction intervals for off-policy reward evaluation in contextual
bandits: rejection sampling toward the target-policy law, conformal quantile
calibration with an exact binomial cutoff, baselines, and a seeded benchmark
harness with analytic oracles.
"""

from .core import (
    GaussianLinearPolicy,
    LoggedDataset,
    PacParams,
    PredictionInterval,
    StochasticPolicy,
    child_rng,
    load_csv,
    save_csv,
    split_dataset,
)
from .rejection import (
    RsDataset,
    RsSplit,
    gaussian_ratio_bound,
    rejection_sample,
)
from .quantile import (
    QuantilePairModel,
    fit_quantile_pair,
)
from .calibrate import (
    CalibratedPredictor,
    CalibrationDiagnostics,
    binomial_quantile_k,
    calibrate_deltas,
    calibrate_model,
    calibrate_split,
    nonconformity,
    pac_threshold,
    pacopp_known,
    split_cp_inflated_level,
    split_cp_min_calibration_size,
    split_cp_threshold,
)
from .baselines import (
    CoppCalibration,
    CoppSets,
    RewardModelGaussian,
    copp_calibrate,
    copp_log_weights,
    copp_sets,
    fit_reward_model,
)
from .behavior import (
    VARIANCE_MARGIN,
    FinitePolicyClass,
    estimate_behavior,
    finite_policy_class,
    mle_policy,
    pacopp_unknown,
    rs_split_unknown,
)
from .synthenv import (
    DEFAULT_ENV,
    SynthEnvSpec,
    TheoremConstants,
    oracle_quantiles,
    sample_logged,
    sample_target,
    target_reward_cdf,
    theorem_constants,
    weight_error,
)
from .bench import (
    AggregateTable,
    BenchConfig,
    TrialReport,
    bounds_table,
    default_finite_class,
    run_figure1,
    run_figure2,
    run_theorem4_convergence,
    run_unknown_sweep,
    simulate_trial,
)
from .cli import cli

__version__ = "0.1.0"
