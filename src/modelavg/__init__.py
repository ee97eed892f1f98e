"""modelavg: post-model-selection and model-averaged estimation lab.

Estimation, weighting, and resampling tools for the two-regressor linear
model with uncertainty about whether the second slope is zero, plus the Monte
Carlo harness and CLI that produce the package's risk and resampling-accuracy
experiments.

``import modelavg`` loads the estimation library only: ``errors``, ``model``,
``weights``, ``estimators`` and ``resampling``. The harness (``config``,
``experiments``, ``svgplot`` and ``cli``, with ``concurrent.futures``) loads
on first use of one of its names, such as ``modelavg.make_scenario`` or
``modelavg.experiments``; ``import modelavg.cli`` loads it all. A library
user thus skips compiling and running the harness.
"""

import importlib

from .errors import (
    CollinearDesign,
    ConfigError,
    ModelAvgError,
    TooManySingularResamples,
    ZeroColumn,
)
from .estimators import (
    ESTIMATOR_NAMES,
    Pipeline,
    make_pipeline,
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

# The harness's names, each with the module that defines it, and its modules.
_LAZY = {
    "RunConfig": "config",
    "parse_config": "config",
    "EXPERIMENTS": "experiments",
    "Scenario": "experiments",
    "draw_dataset": "experiments",
    "ks_ratio_curve": "experiments",
    "make_scenario": "experiments",
    "mc_estimator_draws": "experiments",
    "mse_curve": "experiments",
    "resampling_error_curve": "experiments",
    "risk_bound_sweep": "experiments",
    "stream": "experiments",
    "weight_decay_sweep": "experiments",
}
_LAZY_MODULES = ("cli", "config", "experiments", "svgplot")


def __getattr__(name):
    """A harness module, or a harness name from its module, imported on first use."""
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_MODULES})
