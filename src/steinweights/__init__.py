"""Importance weights for black-box samples via score-based discrepancy.

Given points from an arbitrary, possibly unknown or biased generation
mechanism and a target density known up to normalization through its
score, the package fits nonnegative weights summing to one by minimizing
the weighted kernelized discrepancy to the target, and provides classical
baselines (exact ratios, control functionals, KDE ratios) plus an
experiment harness for mean-squared-error studies.
"""

from .baselines import (
    effective_sample_size,
    kde_rule_of_thumb_bandwidth,
    weights_control_functional,
    weights_exact_is,
    weights_kde,
    weights_uniform,
)
from .errors import (
    DegenerateBandwidthError,
    DegenerateWeightsError,
    DominanceError,
    GramIntegrityError,
    NonFinitePointsError,
    ScoreEvaluationError,
    SolverError,
    SteinWeightsError,
    UnsupportedConfigurationError,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    ExperimentResult,
    GroundTruth,
    RateFit,
    probit_ground_truth,
    rate_fit,
    run_experiment,
    summarize,
    evaluate_test_function,
)
from .kernels import (
    RbfKernel,
    median_heuristic_bandwidth,
)
from .samplers import (
    ChainConfig,
    mala_chain_moments,
    mala_chains,
    sample_gmm_iid,
    sgld_chains,
    tune_mala_step,
)
from .simplex_qp import QpProblem, QpSolution, solve
from .stein import (
    ScoreTarget,
    SteinGram,
    ksd_weighted,
    stein_gram,
    stein_identity_check,
    stein_kernel_block,
)
from .targets import (
    GaussianMixture,
    ProbitModel,
    gaussianity_interpolation,
    probit_simulate,
    random_gaussian_mixture,
    read_probit_dataset,
    standard_normal_target,
    write_probit_dataset,
)

__version__ = "0.1.0"
