"""What ``import modelavg`` loads, and that every exported name still resolves.

The library (errors, model, weights, estimators, resampling) loads with the
package; the harness (config, experiments, svgplot, cli) loads on first use of
one of its names. The boundary checks run in a fresh interpreter, since this
one has long since imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import modelavg

SRC = Path(modelavg.__file__).resolve().parents[1]
HARNESS = ("modelavg.config", "modelavg.experiments", "modelavg.cli", "modelavg.svgplot")

# The 43 names the package exported when it imported all of its modules, by
# the module it imported each from.
EXPORTS = {
    "config": ("EXPERIMENTS", "RunConfig", "parse_config"),
    "errors": ("CollinearDesign", "ConfigError", "ModelAvgError", "TooManySingularResamples", "ZeroColumn"),
    "estimators": ("ESTIMATOR_NAMES", "Pipeline", "make_pipeline"),
    "experiments": (
        "Scenario", "draw_dataset", "ks_ratio_curve", "make_scenario", "mc_estimator_draws",
        "mse_curve", "resampling_error_curve", "risk_bound_sweep", "stream", "weight_decay_sweep",
    ),
    "model": (
        "COLLINEARITY_RTOL", "REFERENCE_DESIGN_SEED", "Dataset", "DesignMatrix", "DesignStats",
        "TrueParams", "compute_design_stats", "generate_response", "load_reference_design",
        "make_uniform_design", "read_design_csv", "write_design_csv",
    ),
    "resampling": (
        "EmpiricalSample", "ResamplePlan", "mean_model_bootstrap", "paired_bootstrap",
        "subsample_distribution",
    ),
    "weights": ("AdaptiveConfig", "ModelWeights", "PretestConfig", "adaptive_weights", "default_tuning"),
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


def run_fresh(code: str):
    """The JSON that ``code`` prints, run in a new interpreter that imports src's modelavg."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module,name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_export_resolves_to_its_module_object(module, name):
    owner = importlib.import_module(f"modelavg.{module}")
    assert getattr(modelavg, name) is getattr(owner, name)
    namespace = {}
    exec(f"from modelavg import {name}", namespace)
    assert namespace[name] is getattr(owner, name)
    assert name in dir(modelavg)


def test_dir_lists_the_harness_modules():
    assert {"cli", "config", "experiments", "svgplot", "__version__"} <= set(dir(modelavg))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        modelavg.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from modelavg import no_such_name", {})


def test_import_loads_the_library_only():
    loaded = run_fresh("""
        import json, sys
        import modelavg
        print(json.dumps(sorted(sys.modules)))
    """)
    assert not {*HARNESS, "concurrent.futures"} & set(loaded)
    assert {"modelavg.estimators", "modelavg.resampling", "modelavg.weights"} <= set(loaded)


def test_harness_module_resolves_before_an_explicit_import():
    # Tests patch modelavg.experiments after a bare `import modelavg`.
    result = run_fresh("""
        import json, sys
        import modelavg
        experiments = modelavg.experiments
        print(json.dumps([experiments is sys.modules["modelavg.experiments"],
                          modelavg.make_scenario is experiments.make_scenario]))
    """)
    assert result == [True, True]


def test_library_calls_import_no_module():
    # perfbench's api_resample: set-up builds the pipelines (and its speed
    # calibration loads numpy.random), then the timed work calls the three
    # resamplers, which must not import anything.
    new = run_fresh("""
        import json, sys
        import numpy as np
        import modelavg

        design = modelavg.load_reference_design()
        tuning = modelavg.default_tuning(design.n)
        pipe = modelavg.estimators.make_pipeline("ama", 1.0, modelavg.PretestConfig(), tuning)
        rng = np.random.default_rng([1, 2])
        before = set(sys.modules)

        from modelavg import model, resampling, weights
        ds = model.generate_response(design, model.TrueParams(alpha=1.0, beta=0.2, sigma=1.0), rng)
        resampling.paired_bootstrap(ds, pipe, resampling.ResamplePlan(b=20), rng)
        resampling.subsample_distribution(ds, pipe, resampling.ResamplePlan(b=20, m=10), rng)
        resampling.mean_model_bootstrap(
            rng.normal(0.3, 1.0, design.n),
            lambda t: weights.adaptive_weights(t / np.sqrt(design.n), tuning).p_u, 20, rng,
        )
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert new == []


def test_cli_import_loads_every_module():
    modules = {f"modelavg.{info.name}" for info in pkgutil.iter_modules(modelavg.__path__)}
    loaded = run_fresh("""
        import json, sys
        import modelavg.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    assert modules <= set(loaded)
    assert set(HARNESS) <= modules
