"""Validity testing for list experiments and latent recovery from multiple responses.

The package has two estimation cores and shared inference machinery:

- ``le_core`` / ``le_gmm``: the list-experiment forward model, its closed-form
  J=3 inverse, and GMM estimation with overidentification (J-) tests under
  four misreporting specifications.
- ``mrt_core`` / ``mrt_mle``: eigendecomposition-based recovery of a binary
  latent trait from three direct responses (closed-form and extremum
  variants, rank pretest, misreporting rates) plus a continuous-covariate
  maximum-likelihood estimator.
- ``resampling``: stratified bootstrap, one-sided percentile p-values, and
  the Monte Carlo harness with its built-in designs.
- ``cli``: the ``listmrt`` command-line interface.
"""

from .errors import (
    DecompositionError,
    DesignError,
    DomainError,
    EstimationError,
    IdentificationError,
    InferenceError,
    ListmrtError,
    LoadError,
    NearDegenerateError,
)
from .le_core import (
    ControlDistribution,
    LeParams,
    LeSample,
    Spec,
    TreatmentDistribution,
    Unidentified,
    empirical_distributions,
    le_forward,
    mean_difference_analytic,
    simulate_le,
    simulate_modified_le,
    solve_le_closed_form,
)
from .le_gmm import (
    GmmResult,
    ModifiedLeResult,
    MomentSpec,
    ZTestResult,
    control_mean_ztest,
    gmm_estimate,
    j_test,
    mean_difference_empirical,
    modified_le_check,
)
from .mrt_core import (
    Method,
    MrtEstimate,
    MrtJoint,
    MrtLatent,
    OrderingRule,
    RankTestResult,
    aggregate_unconditional,
    build_matrices,
    decompose_closed_form,
    decompose_extreme,
    misreport_rates,
    rank_test,
)
from .mrt_mle import (
    MleFit,
    MleParams,
    MrtContinuousSample,
    log_likelihood,
    mle_fit,
    predict_share,
    score,
    swap_labels,
)
from .resampling import (
    CONTINUOUS_TRUTH,
    DISCRETE_TRUTH,
    BootstrapConfig,
    BootstrapResult,
    CorrelationScale,
    DesignKind,
    Direction,
    DiscreteTruth,
    McDesign,
    McRow,
    bootstrap,
    one_sided_pvalue,
    run_monte_carlo,
    simulate_continuous_design,
    simulate_discrete_design,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "BootstrapResult",
    "CONTINUOUS_TRUTH",
    "ControlDistribution",
    "CorrelationScale",
    "DISCRETE_TRUTH",
    "DecompositionError",
    "DesignError",
    "DesignKind",
    "Direction",
    "DiscreteTruth",
    "DomainError",
    "EstimationError",
    "GmmResult",
    "IdentificationError",
    "InferenceError",
    "LeParams",
    "LeSample",
    "ListmrtError",
    "LoadError",
    "McDesign",
    "McRow",
    "Method",
    "MleFit",
    "MleParams",
    "ModifiedLeResult",
    "MomentSpec",
    "MrtContinuousSample",
    "MrtEstimate",
    "MrtJoint",
    "MrtLatent",
    "NearDegenerateError",
    "OrderingRule",
    "RankTestResult",
    "Spec",
    "TreatmentDistribution",
    "Unidentified",
    "ZTestResult",
    "aggregate_unconditional",
    "bootstrap",
    "build_matrices",
    "control_mean_ztest",
    "decompose_closed_form",
    "decompose_extreme",
    "empirical_distributions",
    "gmm_estimate",
    "j_test",
    "le_forward",
    "log_likelihood",
    "mean_difference_analytic",
    "mean_difference_empirical",
    "misreport_rates",
    "mle_fit",
    "modified_le_check",
    "one_sided_pvalue",
    "predict_share",
    "rank_test",
    "score",
    "swap_labels",
    "run_monte_carlo",
    "simulate_continuous_design",
    "simulate_discrete_design",
    "simulate_le",
    "simulate_modified_le",
    "solve_le_closed_form",
    "__version__",
]
