"""Every modelavg name the benchmark (perfbench/child.py) calls still resolves.

The benchmark cannot change together with the library, so a removed or renamed
name would fail every unit of a workload. These tests make it fail here first.
"""

import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

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


def test_benchmark_check_calls_a_one_estimator_pipeline_on_a_dataset():
    # The api_resample check (perfbench/child.py, api_check_data) reads each
    # full-dataset estimate as float(pipe(ds)) for a pipe from make_pipeline.
    design = modelavg.load_reference_design()
    tuning = modelavg.default_tuning(design.n)
    params = modelavg.model.TrueParams(alpha=1.0, beta=0.2, sigma=1.0)
    ds = modelavg.model.generate_response(design, params, np.random.default_rng(0))
    for name in ("ms", "bma_exact", "bma_bic", "ama"):
        pipe = modelavg.estimators.make_pipeline(name, 1.0, modelavg.PretestConfig(), tuning)
        assert float(pipe(ds)) == pipe.fit(ds)[0][name]
    with pytest.raises(ValueError):
        modelavg.Pipeline(("r", "u"), 1.0)(ds)


# Runs in a fresh interpreter, because the tracer replaces module globals of
# modelavg for good. Runs each CLI argv given as JSON, then prints each exit
# status and every span it recorded.
_TRACED_RUNS = textwrap.dedent("""
    import json, sys
    from tracing import Tracer, install
    import modelavg.cli

    tracer = Tracer(run_id="names")
    install(tracer)
    out, runs = sys.argv[1], json.loads(sys.argv[2])
    codes = {
        name: modelavg.cli.main(argv + ["--out", f"{out}/{name}"])
        for name, argv in runs.items()
    }
    print(json.dumps({"codes": codes, "spans": tracer.spans}))
""")

# The work sizes of the traced runs.
_REPS = 30
_BETA_GRID = (0.0, 0.5)  # figure1a and figure1b
_N_GRID = (50, 25)  # riskbound and decay
_FIGURE2_GRID = (0.0,)
_DATASETS = 2  # per figure2 grid point, each resampled _B times
_B = 10


def _grid(values):
    return ",".join(str(v) for v in values)


def test_cli_runs_under_the_benchmark_tracer(tmp_path):
    # perfbench's --trace 1 wraps module-global names of modelavg. It reads
    # the noise block's row count from experiments.batch_estimates' fourth
    # positional argument (or "z"), and the replicate count from the ``b`` of
    # experiments.resampled_estimates' third (or "plan"). A signature change
    # there would crash every traced unit, and a helper that calls a wrapped
    # name through a reference it captured, not through the module global,
    # would silently drop spans.
    common = ["--reps", str(_REPS), "--workers", "1"]
    runs = {
        "figure1a": ["figure1a", f"--beta-grid={_grid(_BETA_GRID)}"],
        "figure1b": ["figure1b", f"--beta-grid={_grid(_BETA_GRID)}"],
        "riskbound": ["riskbound", "--n-grid", _grid(_N_GRID)],
        "decay": ["decay", "--n-grid", _grid(_N_GRID)],
        "figure2": ["figure2", f"--beta-grid={_grid(_FIGURE2_GRID)}",
                    "--datasets-per-beta", str(_DATASETS), "--b", str(_B)],
    }
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "perfbench"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS, str(tmp_path),
         json.dumps({name: argv + common for name, argv in runs.items()})],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == dict.fromkeys(runs, 0), proc.stderr
    spans = result["spans"]
    assert all(span[6] is None for span in spans)  # no wrapped call raised
    batch = [span for span in spans if span[1] == "experiments.batch_estimates"]
    assert batch
    assert all(span[7] == {"rows": _REPS} for span in batch)
    # The tracer reads the replicate count from the engine's third argument, the plan.
    engine = [span for span in spans if span[1] == "experiments.resampled_estimates"]
    assert engine
    assert all(span[7] == {"replicates": _B} for span in engine)

    # Every run freezes the run's design; the two sweeps freeze one more per n.
    designs = len(runs) + 2 * len(_N_GRID)
    mc_draws = 2 * len(_BETA_GRID) + len(_FIGURE2_GRID)  # one truth sample per beta
    sweep_rows = 2 * len(_N_GRID)
    datasets = len(_FIGURE2_GRID) * _DATASETS
    estimators = 3  # ms, bma_bic, ama
    assert Counter(span[1] for span in spans) == {
        "config.parse_config": len(runs),
        # resolved config, CSV and SVG per run, and each frozen beta-grid design
        "cli.write": 3 * len(runs) + 3,
        "experiments.mc_estimator_draws": mc_draws + sweep_rows,
        "experiments.batch_estimates": mc_draws + sweep_rows,
        # figure1b: each estimator against R and U; figure2: against the truth
        "experiments.ks": 2 * estimators * len(_BETA_GRID) + estimators * datasets,
        "experiments.resampled_estimates": datasets,
        "model.generate_response": datasets,
        "experiments.sweep": 2,
        # a design, noise and dataset/resample stream per unit of work
        "experiments.stream": designs + mc_draws + sweep_rows + 2 * datasets,
        # each design once when drawn, then once per truth sample, sweep row and dataset fit
        "model.compute_design_stats": designs + mc_draws + sweep_rows + datasets,
    }
