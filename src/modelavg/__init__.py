"""modelavg: post-model-selection and model-averaged estimation lab.

Estimation, weighting, and resampling tools for the two-regressor linear
model with uncertainty about whether the second slope is zero, plus the Monte
Carlo harness and CLI that produce the package's risk and resampling-accuracy
experiments.
"""

from .config import EXPERIMENTS, RunConfig, parse_config
from .errors import (
    CollinearDesign,
    ConfigError,
    ModelAvgError,
    TooManySingularResamples,
    ZeroColumn,
)
from .estimators import (
    ESTIMATOR_NAMES,
    MeanModelSample,
    Pipeline,
    estimate_arrays,
    make_pipeline,
    mean_model_estimate,
)
from .experiments import (
    Scenario,
    draw_dataset,
    ks_ratio_curve,
    make_scenario,
    mc_estimator_draws,
    mse_curve,
    resampling_error_curve,
    risk_bound_sweep,
    stream,
    weight_decay_sweep,
)
from .model import (
    COLLINEARITY_RTOL,
    REFERENCE_DESIGN_SEED,
    Dataset,
    DesignMatrix,
    DesignStats,
    TrueParams,
    compute_design_stats,
    generate_response,
    load_reference_design,
    make_uniform_design,
    read_design_csv,
    write_design_csv,
)
from .resampling import (
    EmpiricalSample,
    ResamplePlan,
    mean_model_bootstrap,
    paired_bootstrap,
    subsample_distribution,
)
from .weights import (
    AdaptiveConfig,
    ModelWeights,
    PretestConfig,
    adaptive_weights,
    default_tuning,
)

__version__ = "0.1.0"
