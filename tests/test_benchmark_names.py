"""Every modelavg name the benchmark (perfbench/child.py) calls still resolves.

The benchmark cannot change together with the library, so a removed or renamed
name would fail every unit of a workload. These tests make it fail here first.
"""

import importlib.util
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

from conftest import mean_model_reference

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
    y_mm = np.random.default_rng(3).normal(0.0, 1.0, design.n)
    root_n = float(np.sqrt(design.n))

    def weight_u(t):
        return modelavg.weights.adaptive_weights(t / root_n, tuning).p_u

    mean_model = modelavg.resampling.mean_model_bootstrap(
        y_mm, weight_u, 5, np.random.default_rng(4)
    )
    for sample in (
        modelavg.resampling.paired_bootstrap(
            ds, pipe, modelavg.resampling.ResamplePlan(b=5), np.random.default_rng(1)
        ),
        modelavg.resampling.subsample_distribution(
            ds, pipe, modelavg.resampling.ResamplePlan(b=5, m=20), np.random.default_rng(2)
        ),
        mean_model,
    ):
        assert np.asarray(sample.values).size == 5
        assert np.isfinite(sample.quantile(0.5))
    # The rule, called once on all replicates, gives the replicates of one call each.
    expected = mean_model_reference(y_mm, weight_u, 5, np.random.default_rng(4))
    assert np.array_equal(mean_model.values, expected)


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


@pytest.mark.parametrize("scale", ["reference", "tiny"])
def test_benchmark_commands_parse(monkeypatch, scale):
    # perfbench/run.py's plans hold each CLI unit's commands; a unit parses them
    # with parse_config in set-up and runs them as flags through cli.main. A
    # command given a setting its experiment does not take would fail every unit.
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds perfbench/ to it
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    parser = modelavg.cli.build_parser()
    for workload in bench.WORKLOADS:
        plan = bench.make_plan(workload, 1, scale)
        assert plan["kind"] != "cli" or plan["commands"], workload
        for command in plan.get("commands", []):
            experiment, flags = command["experiment"], command["flags"]
            config = modelavg.config.parse_config(experiment, overrides=flags)
            assert config.experiment == experiment
            args = parser.parse_args(
                command["argv"] + [f"--{key.replace('_', '-')}={v}" for key, v in flags.items()]
            )
            assert {key: getattr(args, key) for key in flags} == flags, experiment


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
    # the replicate count from the ``b`` of experiments.resampled_estimates'
    # third positional argument (or "plan"). A signature change there would
    # crash every traced unit, and a helper that calls a wrapped name through
    # a reference it captured, not through the module global, would silently
    # drop spans. The tracer also wraps experiments.batch_estimates, which the
    # blocked Monte Carlo draw replaced; it finds no such name and records no
    # span for it.
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
    # The tracer reads the replicate count from the engine's third argument, the plan.
    engine = [span for span in spans if span[1] == "experiments.resampled_estimates"]
    assert engine
    assert all(span[7] == {"replicates": _B} for span in engine)

    # Every run freezes the run's design once, when parse_config checks its
    # settings by building the run's Scenario, which the run then reads; the
    # two sweeps freeze one more per n.
    designs = len(runs) + 2 * len(_N_GRID)
    mc_draws = 2 * len(_BETA_GRID) + len(_FIGURE2_GRID)  # one truth sample per beta
    sweep_rows = 2 * len(_N_GRID)
    # The runs share one process, which draws each Monte Carlo cell once:
    # figure1b reads figure1a's cells, decay reads riskbound's, and figure2's
    # one cell is figure1a's cell 0 (same seed, design, grid index, reps and
    # params). A cell read again runs the kernel alone, with no noise stream.
    assert _FIGURE2_GRID == _BETA_GRID[:1]
    drawn = len(_BETA_GRID) + len(_N_GRID)
    datasets = len(_FIGURE2_GRID) * _DATASETS
    per_call = max(1, modelavg.experiments._CALL_REPLICATES // _B)
    chunks = len(_FIGURE2_GRID) * -(-_DATASETS // per_call)
    estimators = 3  # ms, bma_bic, ama
    assert Counter(span[1] for span in spans) == {
        "config.parse_config": len(runs),
        # resolved config, CSV and SVG per run, and each frozen beta-grid design
        "cli.write": 3 * len(runs) + 3,
        "experiments.mc_estimator_draws": mc_draws + sweep_rows,
        # figure1b: one call per beta, the (R, U) stack against the estimators;
        # figure2: each estimator against the truth, once per chunk of
        # max(1, _CALL_REPLICATES // b) datasets at each grid point
        "experiments.ks": len(_BETA_GRID) + estimators * chunks,
        "experiments.resampled_estimates": chunks,
        "model.generate_response": datasets,
        "experiments.sweep": 2,
        # a design, noise and dataset/resample stream per unit of work
        "experiments.stream": designs + drawn + 2 * datasets,
        # once per design built; every fit reads the design's stats
        "model.compute_design_stats": designs,
    }
