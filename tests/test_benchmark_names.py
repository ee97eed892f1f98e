"""Every modelavg name the benchmark (perfbench/child.py) calls still resolves.

The benchmark cannot change together with the library, so a removed or renamed
name would fail every unit of a workload. These tests make it fail here first.
"""

import numpy as np
import pytest

import modelavg
import modelavg.cli  # noqa: F401  (the CLI workloads call modelavg.cli.main)

# Attribute chains from the modelavg package, as perfbench/child.py spells them.
BENCHMARK_NAMES = (
    "config.parse_config",
    "cli.main",
    "make_scenario",
    "load_reference_design",
    "default_tuning",
    "PretestConfig",
    "estimators.make_pipeline",
    "model.TrueParams",
    "model.generate_response",
    "resampling.ResamplePlan",
    "resampling.paired_bootstrap",
    "resampling.subsample_distribution",
    "resampling.mean_model_bootstrap",
    "weights.adaptive_weights",
)


@pytest.mark.parametrize("chain", BENCHMARK_NAMES)
def test_benchmark_name_resolves(chain):
    obj = modelavg
    for part in chain.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_benchmark_calls_run_as_spelled():
    # The api_resample calls with the benchmark's argument shapes, at toy size,
    # and the attributes it reads from their results.
    config = modelavg.config.parse_config("figure1a", overrides={"workers": "1"})
    assert config.resolved_workers() == 1
    design = modelavg.load_reference_design()
    tuning = modelavg.default_tuning(design.n)
    pipe = modelavg.estimators.make_pipeline("ama", 1.0, modelavg.PretestConfig(), tuning)
    params = modelavg.model.TrueParams(alpha=1.0, beta=0.2, sigma=1.0)
    ds = modelavg.model.generate_response(design, params, np.random.default_rng(0))
    for sample in (
        modelavg.resampling.paired_bootstrap(
            ds, pipe, modelavg.resampling.ResamplePlan(b=5), np.random.default_rng(1)
        ),
        modelavg.resampling.subsample_distribution(
            ds, pipe, modelavg.resampling.ResamplePlan(b=5, m=20), np.random.default_rng(2)
        ),
        modelavg.resampling.mean_model_bootstrap(
            np.random.default_rng(3).normal(0.0, 1.0, design.n),
            lambda t: modelavg.weights.adaptive_weights(t / np.sqrt(design.n), tuning).p_u,
            5,
            np.random.default_rng(4),
        ),
    ):
        assert np.asarray(sample.values).size == 5
        assert np.isfinite(sample.quantile(0.5))
