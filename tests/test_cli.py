import argparse
import contextlib
import importlib.util
import itertools
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest

import modelavg.cli
import modelavg.config
import modelavg.experiments
from modelavg.cli import main, run
from modelavg.config import (
    DEFAULT_SEED,
    EXPERIMENTS,
    MAGNITUDE_BOUND,
    SETTINGS,
    RunConfig,
    echo_config,
    experiment_settings,
    parse_config,
    read_config_file,
)
from modelavg.errors import ConfigError
from modelavg.estimators import ESTIMATOR_NAMES
from modelavg.experiments import draw_dataset, make_scenario
from modelavg.model import compute_design_stats, response_stats, solve_normal_equations
from modelavg.resampling import STREAM_VERSION, ResamplePlan
from modelavg.svgplot import write_line_plot


# ---------------------------------------------------------------------------
# config parsing


def _reader(key):
    """The first experiment of the table that takes the setting ``key``."""
    return next(e for e in EXPERIMENTS if key in experiment_settings(e))


def test_defaults_reproduce_reference_scale():
    cfg = parse_config("figure1a")
    assert cfg.n == 50
    assert cfg.reps == 5000
    assert cfg.c == pytest.approx(math.sqrt(2.0))
    assert cfg.m is None and cfg.resolved().m == 20  # 0.4 * n
    for n in (2, 3):  # never below the two rows a fit needs
        config = parse_config("figure2-subsample", overrides={"n": str(n)})
        assert config.resolved().m == 2
    assert cfg.b == 500
    assert cfg.datasets_per_beta == 100
    assert cfg.seed == DEFAULT_SEED
    grid = cfg.resolved().beta_grid
    assert cfg.beta_grid == () and len(grid) == 41
    assert grid[0] == -1.0 and grid[-1] == 1.0
    assert cfg.a_n is None  # resolved to (log n)^2 downstream


def test_all_workers_means_the_cpus_this_process_may_use(monkeypatch):
    # --workers 0 counts the CPUs of the process's affinity mask, not the machine's.
    monkeypatch.setattr(modelavg.config.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(modelavg.config.os, "cpu_count", lambda: 8)
    cfg = parse_config("figure1a", overrides={"workers": "0"})
    assert cfg.resolved_workers() == 1
    assert parse_config("figure1a", overrides={"workers": "3"}).resolved_workers() == 3
    # Where the platform has no affinity mask, the machine's count stands.
    monkeypatch.delattr(modelavg.config.os, "sched_getaffinity")
    assert cfg.resolved_workers() == 8


def test_figure2_default_grid_is_restricted():
    for method in ("bootstrap", "subsample"):
        grid = parse_config(f"figure2-{method}").resolved().beta_grid
        assert len(grid) == 17
        assert grid[0] == -0.4 and grid[-1] == 0.4


def test_unknown_experiment_is_a_config_error():
    # Refused before the table is asked for its default grid, and so with or
    # without a grid of its own.
    for overrides in ({}, {"beta_grid": "0,1"}):
        with pytest.raises(ConfigError, match="unknown experiment 'figure3'"):
            parse_config("figure3", overrides=overrides)
    for grid in ((), (0.0, 1.0)):
        with pytest.raises(ConfigError, match="unknown experiment 'figure3'"):
            RunConfig("figure3", beta_grid=grid)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_a_run_config_of_its_own_defaults_is_the_parsed_one_and_runs(tmp_path, experiment):
    # The beta grid and m follow the experiment and n in RunConfig itself, so
    # a config built in code needs no parse_config to run.
    config = RunConfig(experiment)
    assert config == parse_config(experiment)
    assert RunConfig(experiment, n=60).resolved().m == 24
    tiny = replace(config, reps=30, b=10, datasets_per_beta=2, n_grid=(25, 50), workers=1,
                   out=str(tmp_path / "out"))
    assert run(tiny) == 0


def test_replacing_n_moves_the_default_m_along(tmp_path):
    config = replace(RunConfig("figure2-subsample"), n=10)
    assert config.resolved().m == 4  # 0.4 * 10, not the 20 of n = 50
    assert replace(RunConfig("figure2-subsample", m=3), n=10).resolved().m == 3
    tiny = replace(config, reps=30, b=10, datasets_per_beta=2, beta_grid=(0.0,), workers=1,
                   out=str(tmp_path / "out"))
    assert run(tiny) == 0
    assert "m = 4\n" in (tmp_path / "out" / "resolved_config.txt").read_text()


def test_replacing_the_experiment_moves_the_default_grid_along():
    config = replace(RunConfig("figure1a"), experiment="figure2-bootstrap")
    assert config.resolved().beta_grid == EXPERIMENTS["figure2-bootstrap"].beta_grid
    assert config.resolved().beta_grid != RunConfig("figure1a").resolved().beta_grid
    own = replace(RunConfig("figure1a", beta_grid=(0.0, 0.5)), experiment="decay")
    assert own.resolved().beta_grid == (0.0, 0.5)  # a grid that was set stays


def test_flags_override_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n = 50\nseed = 9  # comment\n\n# full line comment\nreps = 100\n")
    cfg = parse_config("figure1a", config_file=cfg_file, overrides={"n": "100", "seed": "7"})
    assert cfg.n == 100
    assert cfg.seed == 7
    assert cfg.reps == 100


def test_m_larger_than_n_names_both_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("figure2-subsample", overrides={"m": "60", "n": "50"})
    message = str(err.value)
    assert "m = 60" in message
    assert "n = 50" in message


def test_config_file_errors_carry_line_numbers(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("n = 50\nbogus = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config("figure1a", config_file=bad_key)
    assert "bad_key.cfg:2" in str(err.value)
    assert "bogus" in str(err.value)

    bad_syntax = tmp_path / "bad_syntax.cfg"
    bad_syntax.write_text("just words\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(bad_syntax, "figure1a")
    assert "bad_syntax.cfg:1" in str(err.value)

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("reps = many\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(bad_value, "figure1a")
    assert "reps" in str(err.value)


def test_grid_parsing_forms():
    cfg = parse_config("figure1a", overrides={"beta_grid": "-1:1:5"})
    assert cfg.beta_grid == (-1.0, -0.5, 0.0, 0.5, 1.0)
    cfg = parse_config("figure1a", overrides={"beta_grid": "0.1,0.2"})
    assert cfg.beta_grid == (0.1, 0.2)
    with pytest.raises(ConfigError):
        parse_config("figure1a", overrides={"beta_grid": ""})
    with pytest.raises(ConfigError):
        parse_config("figure1a", overrides={"beta_grid": "a,b"})
    cfg = parse_config("riskbound", overrides={"n_grid": "25,50"})
    assert cfg.n_grid == (25, 50)


@pytest.mark.parametrize("key, value", [
    ("beta_grid", "0:1:0"), ("n_grid", "50,x"), ("n_grid", ","), ("a_n", "abc"),
])
def test_unreadable_values_name_their_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        parse_config(_reader(key), overrides={key: value})


def test_validation_rejects_bad_combinations():
    for overrides in (
        {"n": "1"},
        {"reps": "0"},
        {"sigma": "-1"},
        {"c": "-0.1"},
        {"prior_p_r": "1.5"},
        {"workers": "-2"},
        {"pretest_form": "zform"},
        {"m": "1"},  # every one-row subsample is singular
        {"seed": "-1"},
        {"a_n": "0"},
        {"k_n": "-1"},
        {"prior_scale": "0"},
        {"prior_p_r": "0"},
        {"b": "0"},
        {"datasets_per_beta": "0"},
        {"n_grid": "1,50"},
    ):
        [key] = overrides  # refused by its bound, for an experiment that reads it
        with pytest.raises(ConfigError):
            parse_config(_reader(key), overrides=overrides)
    # Checked in a config file, never set.
    for key, value in (("experiment", "figure1a"), ("stream_version", str(STREAM_VERSION))):
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            parse_config("figure1a", overrides={key: value})


@pytest.mark.parametrize("key, value, shown", [
    ("n", "1", "1"), ("reps", "0", "0"), ("sigma", "-1", "-1.0"), ("b", "0", "0"), ("m", "1", "1"),
])
def test_owners_bounds_name_the_value(key, value, shown):
    # These bounds are checked by the objects parse_config builds for the run
    # (default_tuning, Scenario, TrueParams, ResamplePlan), in their words.
    with pytest.raises(ConfigError, match=f"^{key} = {shown} "):
        parse_config(_reader(key), overrides={key: value})


def test_each_n_of_the_grid_meets_its_tuning_bound():
    with pytest.raises(ConfigError, match="^n = 1 must be >= 2$"):
        parse_config("riskbound", overrides={"n_grid": "50,1"})


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if "float" in f.type])
def test_non_finite_float_settings_are_refused(key, value):
    # Every bound check compares with < or <=, which a nan passes.
    with pytest.raises(ConfigError, match=f"^{key}: values must be finite"):
        parse_config(_reader(key), overrides={key: value})


# A value for every setting, each different from its default.
NON_DEFAULT_SETTINGS = {
    "n": "60", "reps": "70", "seed": "8", "alpha": "1.5", "beta": "-0.25", "sigma": "2.0",
    "c": "1.25", "pretest_form": "scaled", "a_n": "12.5", "k_n": "4.5", "prior_scale": "3.0",
    "prior_p_r": "0.25", "beta_grid": "-1:1:3", "b": "40", "m": "30", "datasets_per_beta": "6",
    "n_grid": "25,75", "out": "runs/#3", "workers": "3",
}


def _carried(scenario):
    """Each run setting a scenario holds, by config key."""
    return {
        "n": scenario.design.n, "seed": scenario.seed, "reps": scenario.reps,
        "alpha": scenario.params.alpha, "beta": scenario.params.beta,
        "sigma": scenario.params.sigma, "c": scenario.pretest.c,
        "pretest_form": scenario.pretest.form, "a_n": scenario.adaptive.a_n,
        "k_n": scenario.adaptive.k_n, "prior_scale": scenario.prior_scale,
        "prior_p_r": scenario.prior_p_r,
    }


def test_scenario_carries_every_run_setting():
    # Each setting parsed for an experiment that reads it.
    for key in _carried(RunConfig("figure1a").scenario):
        cfg = parse_config(_reader(key), overrides={key: NON_DEFAULT_SETTINGS[key]})
        assert _carried(cfg.scenario)[key] == getattr(cfg, key) != getattr(RunConfig, key), key


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_echo_config_roundtrips(tmp_path, experiment):
    # Every setting the experiment takes, each away from its default; across
    # the table every setting is taken.
    takes = experiment_settings(experiment)
    assert set(NON_DEFAULT_SETTINGS) == set(SETTINGS) == {
        key for e in EXPERIMENTS for key in experiment_settings(e)
    }
    cfg = parse_config(experiment, overrides={k: NON_DEFAULT_SETTINGS[k] for k in takes})
    defaults = parse_config(experiment)
    for key in takes:
        assert getattr(cfg, key) != getattr(defaults, key), key
    path = tmp_path / "resolved_config.txt"
    echo_config(cfg, path)
    lines = path.read_text().splitlines()
    assert [line.partition(" = ")[0] for line in lines] == ["experiment", *takes, "stream_version"]
    assert lines[0] == f"experiment = {experiment}"
    for line in ("n = 60", "a_n = 12.5", "beta_grid = -1.0,0.0,1.0", "n_grid = 25,75", "m = 30"):
        assert (line in lines) == (line.partition(" = ")[0] in takes), line
    assert lines[-1] == f"stream_version = {STREAM_VERSION}"
    assert parse_config(experiment, config_file=path) == cfg


@pytest.mark.parametrize("out", [" sp ", "sp ", " sp", "a\nb", "a\rb", "runs #3", "runs\t#3", "#3"])
def test_echo_config_rejects_values_it_cannot_write_back(tmp_path, out):
    # Each of these would load back as a different value: surrounding
    # whitespace is stripped, a line break splits the line, and '#' at the
    # start of the value or after whitespace starts a comment.
    cfg = parse_config("figure1a", overrides={"out": out})
    path = tmp_path / "resolved_config.txt"
    with pytest.raises(ConfigError, match="^out: "):
        echo_config(cfg, path)
    assert not path.exists()


def test_hash_inside_a_value_is_not_a_comment(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("out = runs/#3\t# tab comment\n  # indented comment\nreps = 7 #8\n")
    assert read_config_file(cfg_file, "figure1a") == {"out": "runs/#3", "reps": 7}


# ---------------------------------------------------------------------------
# the settings each experiment takes


# Values to try for each setting in place of the tiny run's: the first for a
# setting the experiment does not read, each in turn for one it reads, until
# an output byte moves.
_TRIED = {
    "n": (30,), "reps": (40,), "seed": (9,), "alpha": (2.5, -40.0), "beta": (-0.3,),
    "sigma": (2.0,), "c": (0.0, 100.0), "pretest_form": ("scaled",), "a_n": (100.0, 0.1),
    "k_n": (0.5, 0.01), "prior_scale": (3.0,), "prior_p_r": (0.25,), "beta_grid": ((0.1, 0.2),),
    "b": (12,), "m": (9,), "datasets_per_beta": (3,), "n_grid": ((25, 75),),
}

# Settings tried on a second base as well, when no value moves a byte of the
# tiny run's: figure1b and figure2 write KS distances between centred
# estimates, sqrt(n) (estimate - alpha). Every estimate is alpha plus terms
# free of alpha, and every weight reads beta_u alone, so alpha cancels but for
# round-off. At sigma = 1 that round-off reorders no sample; at sigma = 0
# every sample is a point mass, and it moves the distances.
_ALSO_TRIED_ON = {"alpha": {"sigma": 0.0}}


def _outputs(config, out):
    """The bytes of every file a run of ``config`` into ``out`` writes, but its config."""
    assert run(replace(config, out=str(out))) == 0
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "resolved_config.txt"}


def _text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_an_experiment_takes_exactly_the_settings_it_reads(tmp_path, experiment):
    takes = experiment_settings(experiment)
    assert set(EXPERIMENTS[experiment].settings) < set(SETTINGS) == {*_TRIED, "out", "workers"}
    base = replace(RunConfig(experiment), n=20, reps=60, b=10, datasets_per_beta=2,
                   beta_grid=(0.0, 0.3), n_grid=(25, 50), workers=1)
    expected = _outputs(base, tmp_path / "base")
    for key, values in _TRIED.items():
        if key not in takes:
            # Refused when parsed, and changes no output when set in code.
            with pytest.raises(ConfigError, match=f"^{key}: {experiment} does not read "):
                parse_config(experiment, overrides={key: _text(values[0])})
            assert _outputs(replace(base, **{key: values[0]}), tmp_path / key) == expected, key
            continue
        parsed = parse_config(experiment, overrides={key: _text(values[0])})
        assert getattr(parsed, key) == values[0]
        starts = [(base, expected)]
        if key in _ALSO_TRIED_ON:
            other = replace(base, **_ALSO_TRIED_ON[key])
            starts.append((other, _outputs(other, tmp_path / f"{key}-base")))
        assert any(
            _outputs(replace(start, **{key: value}), tmp_path / f"{key}{j}-{i}") != outputs
            for j, (start, outputs) in enumerate(starts)
            for i, value in enumerate(values)
        ), key


# ---------------------------------------------------------------------------
# end-to-end runs


def _run_cli(args):
    return main(args)


def test_figure1a_smoke_run(tmp_path):
    out = tmp_path / "f1a"
    code = _run_cli(
        ["figure1a", "--reps", "50", "--beta-grid=-1:1:5", "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    csv_path = out / "mse_curve.csv"
    svg_path = out / "mse_curve.svg"
    assert csv_path.exists() and svg_path.exists()
    assert (out / "resolved_config.txt").exists()
    assert (out / "design_n50.csv").exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "beta,mse_ms,mse_bma_bic,mse_ama,mse_u,reps,seed"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        [float(c) for c in cells]  # parseable, locale-free floats


def test_figure1b_and_headers(tmp_path):
    out = tmp_path / "f1b"
    code = _run_cli(
        ["figure1b", "--reps", "60", "--beta-grid=0:1:3", "--out", str(out), "--seed", "4"]
    )
    assert code == 0
    lines = (out / "ks_ratio.csv").read_text().splitlines()
    assert lines[0] == (
        "beta,ratio_ms,ratio_bma_bic,ratio_ama,"
        "ks_ms_r,ks_ms_u,ks_bma_r,ks_bma_u,ks_ama_r,ks_ama_u,reps,seed"
    )


def test_figure2_both_methods(tmp_path):
    out_b = tmp_path / "boot"
    code = _run_cli(
        [
            "figure2", "--method", "bootstrap", "--reps", "80", "--b", "20",
            "--datasets-per-beta", "2", "--beta-grid=0:0.2:2", "--out", str(out_b),
        ]
    )
    assert code == 0
    lines = (out_b / "resamp_error_bootstrap.csv").read_text().splitlines()
    assert lines[0] == "beta,err_ms,err_bma_bic,err_ama,datasets,b,excluded,seed"

    out_s = tmp_path / "sub"
    code = _run_cli(
        [
            "figure2", "--method", "subsample", "--reps", "80", "--b", "20",
            "--datasets-per-beta", "2", "--beta-grid=0:0.2:2", "--out", str(out_s),
        ]
    )
    assert code == 0
    assert (out_s / "resamp_error_subsample.csv").exists()
    assert (out_s / "resamp_error_subsample.svg").exists()


def test_riskbound_decay_single_smoke(tmp_path):
    assert _run_cli(["riskbound", "--reps", "50", "--n-grid", "25,50", "--out", str(tmp_path / "rb")]) == 0
    rb_lines = (tmp_path / "rb" / "risk_bound.csv").read_text().splitlines()
    assert rb_lines[0] == "n,n_risk,mc_se,reps,seed"
    assert _run_cli(["decay", "--reps", "50", "--n-grid", "25,50", "--out", str(tmp_path / "dc")]) == 0
    dc_lines = (tmp_path / "dc" / "weight_decay.csv").read_text().splitlines()
    assert dc_lines[0] == "n,mean_p_r,mean_sqrtn_p_r,reps,seed"
    assert _run_cli(["single", "--out", str(tmp_path / "sg"), "--seed", "5050"]) == 0
    sg_lines = (tmp_path / "sg" / "single.csv").read_text().splitlines()
    assert sg_lines[0].startswith("alpha_r,alpha_u,beta_u,ms,bma_exact,bma_bic,ama")
    assert len(sg_lines) == 2


def test_single_row_is_the_pipeline_fit_of_one_dataset(tmp_path):
    assert _run_cli(["single", "--out", str(tmp_path), "--seed", "5050"]) == 0
    header, line = (tmp_path / "single.csv").read_text().splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    # The defaults of every setting, as the single experiment resolves them.
    scenario = make_scenario(n=50, seed=5050, reps=5000, alpha=1.0, beta=0.5, sigma=1.0)
    dataset = draw_dataset(scenario)
    est, p_r = scenario.pipeline(ESTIMATOR_NAMES).fit(dataset)
    stats = compute_design_stats(dataset.design)
    p1, p2 = response_stats(dataset)
    expected = {
        "alpha_r": est["r"],
        "alpha_u": est["u"],
        "beta_u": solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)[1],
        "ms": est["ms"],
        "bma_exact": est["bma_exact"],
        "bma_bic": est["bma_bic"],
        "ama": est["ama"],
        "w_posterior_r": p_r["bma_exact"],
        "w_bic_r": p_r["bma_bic"],
        "w_adaptive_r": p_r["ama"],
    }
    assert {key: float(row[key]) for key in expected} == expected
    assert (row["n"], row["seed"]) == ("50", "5050")


def test_runs_are_byte_identical(tmp_path):
    args = ["figure1a", "--reps", "40", "--beta-grid=-0.5:0.5:3", "--seed", "11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run_cli(args + ["--out", str(out1)]) == 0
    assert _run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "mse_curve.csv").read_bytes() == (out2 / "mse_curve.csv").read_bytes()
    assert (out1 / "mse_curve.svg").read_bytes() == (out2 / "mse_curve.svg").read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    base = ["figure1a", "--reps", "40", "--beta-grid=-0.5:0.5:4", "--seed", "12"]
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert _run_cli(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert _run_cli(base + ["--workers", "8", "--out", str(out8)]) == 0
    assert (out1 / "mse_curve.csv").read_bytes() == (out8 / "mse_curve.csv").read_bytes()


# Runs each argv of the JSON list argv[2] with --out argv[1]/<its index>.
_RUN_EACH = """
import json, sys
from modelavg.cli import main
sys.exit(max(main([*a, "--out", f"{sys.argv[1]}/{i}"]) for i, a in enumerate(json.loads(sys.argv[2]))))
"""


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks OpenBLAS's kernel for one process (a numpy
    # without OpenBLAS ignores it). The Monte Carlo path reduces with numpy's
    # own loops, so every kernel writes the same bytes.
    runs = [["figure1a", "--reps", "999", "--beta-grid=-0.2:0.2:5"],
            ["riskbound", "--reps", "999", "--n-grid", "50,800"]]
    src = Path(modelavg.cli.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    outputs = {}
    for kernel in (None, "Prescott", "Sandybridge"):
        out = tmp_path / str(kernel)
        subprocess.run(
            [sys.executable, "-c", _RUN_EACH, str(out), json.dumps(runs)],
            env={**env, "OPENBLAS_CORETYPE": kernel} if kernel else env,
            capture_output=True, timeout=300, check=True,
        )
        outputs[kernel] = {p.relative_to(out): p.read_bytes() for p in sorted(out.glob("*/*.csv"))}
    assert {Path("0/mse_curve.csv"), Path("1/risk_bound.csv")} <= outputs[None].keys()
    assert outputs["Prescott"] == outputs[None]
    assert outputs["Sandybridge"] == outputs[None]


def test_failed_run_removes_partial_files(tmp_path, monkeypatch):
    # A failed rerun into an existing --out leaves the earlier run's file as
    # it was and leaves no temporary behind.
    out = tmp_path / "fail"
    out.mkdir()
    old = b"beta,mse_ms\n0.5,0.25\n"
    (out / "mse_curve.csv").write_bytes(old)

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(modelavg.experiments, "mse_curve", boom)
    code = run(parse_config("figure1a", overrides={"reps": "10", "out": str(out)}))
    assert code == 1
    assert not (out / "resolved_config.txt").exists()
    assert not (out / "design_n50.csv").exists()
    assert (out / "mse_curve.csv").read_bytes() == old
    assert [p.name for p in out.iterdir()] == ["mse_curve.csv"]


def test_failed_run_into_a_new_out_leaves_no_directory(tmp_path, monkeypatch):
    # --out and its missing parents are created by the run, so a failed run
    # removes them all; the existing parent stays.
    out = tmp_path / "new" / "deeper"

    def boom(*args, **kwargs):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(modelavg.experiments, "mse_curve", boom)
    code = run(parse_config("figure1a", overrides={"reps": "10", "out": str(out)}))
    assert code == 1
    assert list(tmp_path.iterdir()) == []


def test_out_naming_a_file_fails_cleanly(tmp_path, capsys):
    # An --out that is a file, or lies under one, is reported like any failed
    # run: status 1, an error line, and the file left as it was.
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep\n")
    for out in (taken, taken / "sub"):
        assert _run_cli(["single", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert taken.read_bytes() == b"keep\n"
    assert list(tmp_path.iterdir()) == [taken]


def test_outputs_appear_only_when_the_run_succeeds(tmp_path, monkeypatch):
    # The CSV is complete when the plot fails; it still never reaches its
    # final name, and during the run only temporaries exist in --out.
    out = tmp_path / "late"
    out.mkdir()
    old = {"mse_curve.csv": b"old csv\n", "resolved_config.txt": b"old config\n"}
    for name, data in old.items():
        (out / name).write_bytes(data)
    seen = []

    def failing_plot(path, *args, **kwargs):
        seen.extend(sorted(p.name for p in out.iterdir()))
        raise OSError("disk full")

    monkeypatch.setattr(modelavg.cli, "write_line_plot", failing_plot)
    code = run(parse_config("figure1a", overrides={"reps": "10", "out": str(out)}))
    assert code == 1
    new = [name for name in seen if name not in old]
    assert len(new) == 3 and all(name.startswith(".") for name in new)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old


def test_interrupted_run_removes_partial_files_and_propagates(tmp_path, monkeypatch):
    # Ctrl-C while figure2 resamples its second chunk of datasets (3 and 1 at
    # a budget of 30 replicates per call, b = 10): the interrupt reaches the
    # caller, and the --out directory the run created is gone with the files
    # it had begun.
    out = tmp_path / "interrupted"
    monkeypatch.setattr(modelavg.experiments, "_CALL_REPLICATES", 30)
    real = modelavg.experiments.resampled_estimates
    calls = {"count": 0}

    def interrupt_on_second(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(modelavg.experiments, "resampled_estimates", interrupt_on_second)
    args = ["figure2", "--reps", "30", "--datasets-per-beta", "4", "--b", "10",
            "--beta-grid=0", "--workers", "1", "--out", str(out)]
    with pytest.raises(KeyboardInterrupt):
        _run_cli(args)
    assert calls["count"] == 2
    assert not out.exists()


def test_cli_error_reporting_bad_flags(tmp_path, capsys):
    code = _run_cli(["figure2", "--method", "subsample", "--m", "60", "--n", "50",
                     "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "m = 60" in err and "n = 50" in err

    out = tmp_path / "m1"
    assert _run_cli(["figure2", "--method", "subsample", "--m", "1", "--out", str(out)]) == 2
    assert "m = 1" in capsys.readouterr().err
    assert not out.exists()

    out = tmp_path / "prior"
    assert _run_cli(["single", "--prior-scale", "0", "--out", str(out)]) == 2
    assert "prior_scale" in capsys.readouterr().err
    assert not out.exists()

    out = tmp_path / "sigma"
    assert _run_cli(["single", "--sigma", "-1", "--out", str(out)]) == 2
    assert "sigma = -1.0" in capsys.readouterr().err
    assert not out.exists()

    # n is checked before m, whose default 2 would exceed n = 1.
    assert _run_cli(["figure1a", "--n", "1", "--out", str(tmp_path / "n1")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"\bn\b", err) and "m = " not in err


def test_a_setting_the_experiment_does_not_read_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    # A setting flag decay's subcommand does not show is refused by name; an
    # exact --n is not read as an abbreviation of --n-grid.
    for flag, key in (("--a-n", "a_n"), ("--n", "n")):
        assert main(["decay", flag, "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: decay does not read this setting; it takes reps, ")
    # Any other flag gets the subcommand's own usage.
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--bogus", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: modelavg decay ")
    assert "modelavg decay: error: unrecognized arguments: --bogus 1" in err
    cfg_file = tmp_path / "decay.cfg"
    cfg_file.write_text("reps = 20\na_n = 100\n")
    assert main(["decay", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert f"{cfg_file}:2: a_n: decay does not read this setting" in capsys.readouterr().err
    # figure2 has --m for its subsample method, which the bootstrap refuses.
    assert main(["figure2", "--method", "bootstrap", "--m", "20", "--out", str(out)]) == 2
    assert "m: figure2-bootstrap does not read this setting" in capsys.readouterr().err
    assert not out.exists()


def test_subcommands_follow_the_experiment_list(monkeypatch):
    seen = []
    monkeypatch.setattr(modelavg.cli, "run", lambda cfg: seen.append(cfg.experiment) or 0)
    for experiment in EXPERIMENTS:
        name, _, method = experiment.partition("-")
        assert main([name, *(["--method", method] if method else [])]) == 0
    assert seen == list(EXPERIMENTS)
    for argv in (["figure3"], ["figure2", "--method", "jackknife"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # A new entry of the table is a new subcommand or --method choice.
    monkeypatch.setitem(EXPERIMENTS, "figure2-jackknife", EXPERIMENTS["figure2-bootstrap"])
    parser = modelavg.cli.build_parser()
    assert parser.parse_args(["figure2", "--method", "jackknife"]).method == "jackknife"
    assert parser.parse_args(["figure2"]).method == "bootstrap"


_README = Path(__file__).resolve().parents[1] / "README.md"
_TINY = {"reps": "20", "beta_grid": "0", "n_grid": "25", "b": "10", "datasets_per_beta": "2",
         "workers": "1"}


def _readme_csv_name(experiment: str) -> str:
    # The figure2 methods share one README row, resamp_error_<method>.csv.
    method = experiment.partition("-")[2]
    name = f"{EXPERIMENTS[experiment].stem}.csv"
    return name.replace(method, "<method>") if method else name


def _readme_schemas() -> dict:
    """README's CSV schema table: file name -> header."""
    return dict(re.findall(r"^\| `([^`]+\.csv)` \| `([^`]+)` \|$", _README.read_text(), re.M))


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_csv_header_is_the_readme_schema(tmp_path, experiment):
    name, _, method = experiment.partition("-")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in _TINY.items()
             if key in experiment_settings(experiment)]
    argv = [name, *(["--method", method] if method else []), *flags, "--out", str(tmp_path)]
    assert main(argv) == 0
    header = (tmp_path / f"{EXPERIMENTS[experiment].stem}.csv").read_text().splitlines()[0]
    assert header == _readme_schemas()[_readme_csv_name(experiment)]


def test_readme_names_exactly_the_table():
    usage = re.search(r"^modelavg (\S+) \[--config FILE\]", _README.read_text(), re.M)
    parser = modelavg.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert usage.group(1).split("|") == list(sub.choices)
    assert set(_readme_schemas()) == {_readme_csv_name(e) for e in EXPERIMENTS}


_TOY_PLOT = ("y_", "Toy title", "toy y")


@pytest.mark.parametrize("plot, column", [(None, None), (_TOY_PLOT, None), (_TOY_PLOT, "toy")],
                         ids=["None", "plot1", "new_column"])
def test_a_table_entry_is_a_whole_experiment(tmp_path, monkeypatch, plot, column):
    # One entry gives the subcommand, its default grid, its rows and its files.
    # A new plotted column is one more line of the legend in experiments.
    calls = []

    def rows(config, scenario, workers):
        calls.append((config.beta_grid, scenario.design.n, workers))
        extra = [f"y_{column}"] if column else []
        return [{"x": float(k), "y_ms": 2.0 * k, **{c: 3.0 * k for c in extra}, "seed": config.seed}
                for k in range(3)]

    # With a plot the toy reads n, and so writes its design; without one it does not.
    design = plot is not None
    settings = ("n", "seed") if design else ("seed",)
    toy = modelavg.experiments.Experiment(rows, "toy", settings, plot, beta_grid=(0.25,))
    monkeypatch.setitem(EXPERIMENTS, "toy", toy)
    if column:
        monkeypatch.setitem(modelavg.experiments.LEGEND, column, ("Toy column", "dotted"))
    out = tmp_path / "toy"
    n_flag = ["--n", "7"] if design else []
    assert main(["toy", *n_flag, "--workers", "1", "--seed", "3", "--out", str(out)]) == 0
    assert calls == [((0.25,), 7 if design else 50, 1)]
    files = {"resolved_config.txt", "toy.csv"} | ({"toy.svg", "design_n7.csv"} if design else set())
    assert {p.name for p in out.iterdir()} == files
    echoed = (out / "resolved_config.txt").read_text().splitlines()
    assert [line.partition(" = ")[0] for line in echoed] == [
        "experiment", *settings, "out", "workers", "stream_version"
    ]
    expected = ("x,y_ms,seed\n0.0,0.0,3\n1.0,2.0,3\n2.0,4.0,3\n" if column is None else
                "x,y_ms,y_toy,seed\n0.0,0.0,0.0,3\n1.0,2.0,3.0,3\n2.0,4.0,6.0,3\n")
    assert (out / "toy.csv").read_text() == expected
    assert "experiment = toy\n" in (out / "resolved_config.txt").read_text()
    if plot:
        svg = (out / "toy.svg").read_text()
        assert "Toy title" in svg and "toy y" in svg
        legend = [("MS (pretest)", _BROKEN)] + ([("Toy column", _DOTTED)] if column else [])
        assert [(label, dash) for dash, label in _LEGEND_ENTRY.findall(svg)] == legend
        assert _POLYLINE.findall(svg) == [dash for _, dash in legend]


def test_the_environment_sets_no_setting(tmp_path, monkeypatch):
    # A run reads its flags and config file only: MODELAVG_SEED, once a seed
    # source, moves neither the parsed seed nor the recorded one.
    monkeypatch.setenv("MODELAVG_SEED", "7")
    assert parse_config("decay").seed == DEFAULT_SEED
    out = tmp_path / "env"
    assert main(["decay", "--reps", "20", "--n-grid", "25", "--out", str(out)]) == 0
    assert f"seed = {DEFAULT_SEED}\n" in (out / "resolved_config.txt").read_text()


# Dash patterns as the SVG writes them; "" is a solid line.
_SOLID, _BROKEN, _DOTTED, _DOTDASH = "", "9,5", "2,4", "11,4,2,4"
_ESTIMATOR_LEGEND = [
    ("BMA (BIC weights)", _SOLID), ("MS (pretest)", _BROKEN), ("AMA (adaptive)", _DOTTED)
]
_FIGURE2_FLAGS = ["--reps", "30", "--b", "10", "--datasets-per-beta", "2", "--beta-grid=0,0.3"]

# Per figure: its argv at toy scale, its SVG, and its legend (label, dash pattern) in order.
_FIGURES = [
    (["figure1a", "--reps", "30", "--beta-grid=-1:1:4"], "mse_curve.svg",
     _ESTIMATOR_LEGEND + [("U only", _DOTDASH)]),
    (["figure1b", "--reps", "30", "--beta-grid=-1:1:3"], "ks_ratio.svg", _ESTIMATOR_LEGEND),
    (["figure2", "--method", "bootstrap", *_FIGURE2_FLAGS], "resamp_error_bootstrap.svg",
     _ESTIMATOR_LEGEND),
    (["figure2", "--method", "subsample", *_FIGURE2_FLAGS], "resamp_error_subsample.svg",
     _ESTIMATOR_LEGEND),
    (["riskbound", "--reps", "30", "--n-grid", "25,50"], "risk_bound.svg",
     [("n * risk", _SOLID)]),
    (["decay", "--reps", "30", "--n-grid", "25,50"], "weight_decay.svg",
     [("mean weight on R", _SOLID), ("sqrt(n) x mean weight", _BROKEN)]),
]

_DASH = r'(?: stroke-dasharray="([^"]*)")?'
_LEGEND_ENTRY = re.compile(
    r'<line [^>]*stroke-width="1.6"' + _DASH + r'/>\n<text [^>]*>([^<]*)</text>'
)
_POLYLINE = re.compile(r'<polyline [^>]*stroke-width="1.6"' + _DASH + r" points=")


def test_svg_is_self_contained(tmp_path):
    for i, (argv, name, legend) in enumerate(_FIGURES):
        out = tmp_path / str(i)
        assert _run_cli(argv + ["--workers", "1", "--out", str(out)]) == 0
        svg = (out / name).read_text()
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", ""), name
        assert [(label, dash) for dash, label in _LEGEND_ENTRY.findall(svg)] == legend, name
        # One line per series, drawn in the legend's order and style.
        assert _POLYLINE.findall(svg) == [dash for _, dash in legend], name


@contextlib.contextmanager
def _returns_within(seconds, what):
    """A timer that turns a hang in the block into a TimeoutError."""

    def hang(signum, frame):
        raise TimeoutError(f"{what} did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("ulps", [1, 2])
@pytest.mark.parametrize("value", [0.5, 1.0, 3.0, 1e6])
def test_plot_of_a_span_a_few_ulps_wide_is_drawn_like_equal_values(tmp_path, value, ulps):
    # A tick step of a fraction of such a span does not advance a float, so
    # the tick loop never ended.
    top = value
    for _ in range(ulps):
        top = math.nextafter(top, math.inf)
    with _returns_within(1.0, f"write_line_plot of [{value!r}, {top!r}]"):
        for name, values in (("narrow", [value, top]), ("equal", [value, value])):
            write_line_plot(tmp_path / f"{name}.svg", "t", "x", "y", [0.0, 1.0],
                            [("s", values, "solid")])
    assert (tmp_path / "narrow.svg").read_bytes() == (tmp_path / "equal.svg").read_bytes()


_TICK_LABEL = re.compile(r'font-size="12">([^<]*)</text>')


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [3e-323, 3e-323]),  # the tick step underflowed to 0
    ([0.0, 1.0], [-3e-323, -3e-323]),
    ([0.0, 1.0], [1e-322, 1e-322]),  # no step multiplier fitted the rounded raw step
    ([0.0, 1.0], [0.0, 1e-320]),  # apart, but too close for subnormal ticks
    ([0.0, 1.0], [-5e-324, 0.0]),
    ([1e20], [1.0]),  # x +- 0.5 did not move it: a zero-width axis
    ([0.0], [0.0]),
], ids=["3e-323", "-3e-323", "1e-322", "subnormal_span", "-5e-324_to_0", "x_1e20", "x_0"])
def test_plot_of_a_degenerate_axis_is_drawn(tmp_path, x, y):
    path = tmp_path / "p.svg"
    with _returns_within(1.0, f"write_line_plot of x = {x}, y = {y}"):
        write_line_plot(path, "t", "x", "y", x, [("s", y, "solid")])
    svg = path.read_text()
    assert "nan" not in svg and "inf" not in svg
    assert len(_TICK_LABEL.findall(svg)) >= 4  # ticks on both axes, besides the legend


@pytest.mark.parametrize("x, y, axis", [
    ([0.0, 1.0], [1.7e308, 1.7e308], "y"),  # the pad overflows
    ([0.0, 1.0], [-1e308, 1e308], "y"),  # the headroom overflows
    ([-1e308, 1e308], [0.0, 1.0], "x"),  # the span overflows
], ids=["y_1.7e308", "y_+-1e308", "x_+-1e308"])
def test_plot_of_an_axis_beyond_the_float_range_is_refused(tmp_path, x, y, axis):
    path = tmp_path / "p.svg"
    with pytest.raises(ValueError, match=f"^the {axis} axis, padded to .* spans more than "):
        write_line_plot(path, "t", "x", "y", x, [("s", y, "solid")])
    assert not path.exists()


@pytest.mark.parametrize("x, y, shown", [
    ([0.0, math.inf], [1.0, 2.0], "x holds inf"),
    ([0.0, 1.0], [1.0, math.nan], "series 's' holds nan"),
    ([0.0, 1.0], [-math.inf, 2.0], "series 's' holds -inf"),
])
def test_plot_of_a_non_finite_value_is_refused_by_name(tmp_path, x, y, shown):
    path = tmp_path / "p.svg"
    with pytest.raises(ValueError, match=f"^{re.escape(shown)}, which cannot be plotted$"):
        write_line_plot(path, "t", "x", "y", x, [("ok", [0.0, 0.0], "solid"), ("s", y, "solid")])
    assert not path.exists()


def _refused_before_any_draw(monkeypatch, capsys, tmp_path, argv, key):
    """``argv`` exits 2 with one error line naming ``key`` and the magnitude
    bound, before any stream is drawn: no warning and no output directory."""

    def no_draw(*args):
        raise AssertionError("a refused run drew a stream")

    monkeypatch.setattr(modelavg.experiments, "stream", no_draw)
    out = tmp_path / "refused"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--workers", "1", "--out", str(out)]) == 2
    assert re.fullmatch(rf"error: {key}: \|[^|\n]+\| must be <= 1e\+50\n", capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--sigma", "1e160"], ["--alpha", "1e200"]])
def test_a_run_whose_mse_overflows_names_the_series(tmp_path, capsys, monkeypatch, flag):
    # Settings that overflow every MSE lie beyond the magnitude bound: the run
    # is refused, naming the setting, before its grid is drawn.
    argv = ["figure1a", *flag, "--reps", "5", "--beta-grid", "0"]
    _refused_before_any_draw(monkeypatch, capsys, tmp_path, argv, flag[0][2:])


def test_an_overflowing_rss_gap_warns_nothing(tmp_path, capsys, monkeypatch):
    # A slope whose RSS gap overflows lies beyond the magnitude bound, and a
    # negative one needs the --flag=value form. The library's BIC and sigma = 0
    # rules still take it (test_estimators, test_weights).
    for beta in ("1e160", "-1e160"):
        argv = ["single", "--sigma", "0", f"--beta={beta}"]
        _refused_before_any_draw(monkeypatch, capsys, tmp_path, argv, "beta")


@pytest.mark.parametrize("argv", [
    ["figure1b", "--sigma", "1e307", "--reps", "50", "--beta-grid", "0,0.5"],
    ["figure2", "--method", "bootstrap", "--sigma", "1e307", "--reps", "50", "--b", "20",
     "--datasets-per-beta", "2", "--beta-grid", "0"],
], ids=["figure1b", "figure2"])
def test_a_run_whose_estimates_overflow_writes_no_ks_distance(tmp_path, capsys, monkeypatch, argv):
    # Estimates that overflow to nan or inf need a sigma beyond the magnitude
    # bound, which the run refuses; the KS distance's own refusal of them is
    # tested on the library (test_experiments).
    _refused_before_any_draw(monkeypatch, capsys, tmp_path, argv, "sigma")


def _argv(experiment, settings):
    """The command line of ``experiment`` with each setting as --flag=value."""
    name, _, method = experiment.partition("-")
    flags = [f"--{key.replace('_', '-')}={_text(value)}" for key, value in settings.items()]
    return [name, *(["--method", method] if method else []), *flags]


_ABOVE = math.nextafter(MAGNITUDE_BOUND, math.inf)


@pytest.mark.parametrize("key", ["alpha", "beta", "sigma", "beta_grid"])
def test_a_magnitude_just_above_the_bound_exits_2_and_the_bound_is_taken(
    tmp_path, capsys, monkeypatch, key
):
    experiment = _reader(key)
    signs = (1.0,) if key == "sigma" else (1.0, -1.0)  # sigma >= 0 is its own bound
    for sign in signs:
        value = (0.0, sign * MAGNITUDE_BOUND) if key == "beta_grid" else sign * MAGNITUDE_BOUND
        config = parse_config(experiment, overrides={key: _text(value)})
        assert getattr(config, key) == value
    with monkeypatch.context() as patched:
        for sign in signs:
            value = (0.0, sign * _ABOVE) if key == "beta_grid" else sign * _ABOVE
            _refused_before_any_draw(patched, capsys, tmp_path, _argv(experiment, {key: value}),
                                     key)


def _finite_outputs(out):
    """Every CSV number and SVG coordinate ``out`` holds is finite."""
    names = sorted(p.name for p in out.iterdir())
    assert any(name.endswith(".csv") for name in names), names
    for path in out.iterdir():
        if path.suffix == ".csv":
            for cell in ",".join(path.read_text().splitlines()[1:]).split(","):
                assert math.isfinite(float(cell)), (path.name, cell)
        elif path.suffix == ".svg":
            text = path.read_text()
            assert "nan" not in text and "inf" not in text, path.name


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_every_setting_within_the_magnitude_bound_runs_without_a_warning(tmp_path, experiment):
    # The bound's edges, zero and one for each bounded setting the experiment
    # takes, at tiny scale, with numpy's warnings raised as errors: each run
    # writes finite rows and plots. beta_grid holds -B, 0 and B in one run.
    takes = experiment_settings(experiment)
    bound = MAGNITUDE_BOUND
    values = {"alpha": (-bound, 1.0, bound), "beta": (-bound, 0.0, bound),
              "sigma": (0.0, 1.0, bound)}
    tiny = {key: value for key, value in (
        ("reps", 20), ("b", 10), ("datasets_per_beta", 2), ("n_grid", (25, 800)),
        ("beta_grid", (-bound, 0.0, bound)),
    ) if key in takes}
    scanned = [key for key in values if key in takes]
    for i, combo in enumerate(itertools.product(*(values[key] for key in scanned))):
        out = tmp_path / str(i)
        argv = _argv(experiment, {**tiny, **dict(zip(scanned, combo))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--workers", "1", "--out", str(out)]) == 0, argv
        _finite_outputs(out)


@pytest.mark.parametrize("experiment", ["single", "riskbound"])
def test_bma_exact_runs_at_a_tiny_sigma(tmp_path, experiment):
    # (1 + G/u) overflowed and sigma^2 underflowed, so single wrote nan and
    # riskbound failed at its plot.
    settings = {"sigma": 1e-80, "reps": 20, "n_grid": (25, 50)}
    argv = _argv(experiment, {k: v for k, v in settings.items() if k in experiment_settings(
        experiment)})
    out = tmp_path / "tiny_sigma"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--workers", "1", "--out", str(out)]) == 0
    _finite_outputs(out)


def test_figure2_at_one_huge_beta_writes_its_plot(tmp_path):
    out = tmp_path / "huge"
    argv = ["figure2", "--method", "bootstrap", "--beta-grid", "1e20", "--reps", "40", "--b",
            "10", "--datasets-per-beta", "2", "--workers", "1", "--out", str(out)]
    assert _run_cli(argv) == 0
    assert (out / "resamp_error_bootstrap.svg").exists()


def test_csv_floats_roundtrip(tmp_path):
    out = tmp_path / "rt"
    assert _run_cli(["decay", "--reps", "35", "--n-grid", "25,50", "--out", str(out)]) == 0
    lines = (out / "weight_decay.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    recomputed = modelavg.experiments.weight_decay_sweep(
        [25, 50], modelavg.experiments.make_scenario(n=50, seed=DEFAULT_SEED, reps=35, beta=0.5)
    )
    for cells, row in zip(rows, recomputed):
        assert float(cells[1]) == row["mean_p_r"]
        assert float(cells[2]) == row["mean_sqrtn_p_r"]


def test_run_settings_reach_the_sweep_cells(tmp_path):
    # Each n cell takes the run's sigma, prior, reps and seed: the CSV equals the
    # library sweep on make_scenario with the same settings, and differs from
    # the sweep without the setting under test (the prior, then sigma).
    prior = {"prior_scale": 2.0, "prior_p_r": 0.3}
    sweeps = modelavg.experiments.risk_bound_sweep, modelavg.experiments.weight_decay_sweep
    for command, sweep, stem, settings, baseline in (
        ("riskbound", sweeps[0], "risk_bound", {"sigma": 1.5, **prior}, {"sigma": 1.5}),
        ("decay", sweeps[1], "weight_decay", {"sigma": 1.5}, {}),
    ):
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
        out = tmp_path / command
        argv = [command, *flags, "--reps", "200", "--n-grid", "25,50", "--seed", "7"]
        assert _run_cli(argv + ["--workers", "1", "--out", str(out)]) == 0
        written = (out / f"{stem}.csv").read_text()

        def expected(**kwargs):
            path = tmp_path / f"{command}_expected.csv"
            scenario = make_scenario(n=50, seed=7, reps=200, beta=0.5, **kwargs)
            modelavg.cli.write_rows_csv(path, sweep((25, 50), scenario))
            return path.read_text()

        assert written == expected(**settings)
        assert written != expected(**baseline)


def _resolved_rerun(tmp_path, command, flags):
    """Run, then rerun from the first run's resolved_config.txt into a new --out."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert _run_cli(command + flags + ["--out", str(first)]) == 0
    resolved = first / "resolved_config.txt"
    assert _run_cli(command + ["--config", str(resolved), "--out", str(second)]) == 0
    return first, second


def test_resolved_config_reproduces_figure1a(tmp_path):
    flags = ["--reps", "40", "--beta-grid=-0.5:0.5:3", "--seed", "13", "--c", "1.5"]
    first, second = _resolved_rerun(tmp_path, ["figure1a"], flags)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name != "resolved_config.txt":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    lines1 = (first / "resolved_config.txt").read_text().splitlines()
    lines2 = (second / "resolved_config.txt").read_text().splitlines()
    assert [a != b for a, b in zip(lines1, lines2)].count(True) == 1
    assert f"out = {second}" in lines2


def test_resolved_config_reproduces_figure2_subsample(tmp_path):
    flags = ["--reps", "60", "--b", "15", "--m", "18", "--datasets-per-beta", "2",
             "--beta-grid=0,0.2", "--seed", "21", "--workers", "1"]
    first, second = _resolved_rerun(tmp_path, ["figure2", "--method", "subsample"], flags)
    for name in ("resamp_error_subsample.csv", "resamp_error_subsample.svg", "design_n50.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_resolved_config_of_another_run_exits_2(tmp_path, capsys):
    first = tmp_path / "f1a"
    assert _run_cli(["figure1a", "--reps", "20", "--beta-grid=0", "--out", str(first)]) == 0
    resolved = first / "resolved_config.txt"
    capsys.readouterr()
    code = _run_cli(["figure1b", "--config", str(resolved), "--out", str(tmp_path / "f1b")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{resolved}:1:" in err and "figure1a" in err and "figure1b" in err
    assert not (tmp_path / "f1b").exists()

    old_layout = tmp_path / "old_layout.txt"
    old_layout.write_text(resolved.read_text().replace(
        f"stream_version = {STREAM_VERSION}", "stream_version = 1"))
    code = _run_cli(["figure1a", "--config", str(old_layout), "--out", str(tmp_path / "old")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(old_layout) in err
    assert "stream_version = 1" in err and f"stream_version = {STREAM_VERSION}" in err


def test_bad_flag_value_exits_2_with_config_message(tmp_path, capsys):
    assert _run_cli(["decay", "--reps", "abc", "--out", str(tmp_path / "x")]) == 2
    assert "reps: expected int, got 'abc'" in capsys.readouterr().err
    assert _run_cli(["figure1a", "--beta-grid=a,b", "--out", str(tmp_path / "x")]) == 2
    assert "beta_grid: expected 'lo:hi:count'" in capsys.readouterr().err
    assert _run_cli(["figure1a", "--sigma", "nan", "--out", str(tmp_path / "x")]) == 2
    assert "sigma: values must be finite, got 'nan'" in capsys.readouterr().err


def test_flag_spellings_parse_to_the_same_config(monkeypatch):
    # Every flag spelling, space- and '='-separated; the expected configs are
    # what the argparse front end with one hand-written flag table produced.
    seen = []
    monkeypatch.setattr(modelavg.cli, "run", lambda cfg: seen.append(cfg) or 0)
    # figure2-subsample takes every setting but the four riskbound is given.
    assert main([
        "figure2", "--method", "subsample", "--n", "60", "--reps", "70", "--seed", "8",
        "--alpha", "1.5", "--sigma", "2.0", "--c", "1.25",
        "--pretest-form", "scaled", "--a-n", "12.5", "--k-n", "none",
        "--beta-grid=-0.2:0.2:3", "--b", "40", "--m", "30",
        "--datasets-per-beta", "6",
        "--out", "somewhere", "--workers", "3",
    ]) == 0
    assert main(["figure2", "--datasets-per-beta=7", "--beta-grid=0.0,0.1", "--workers=1",
                 "--k-n=4.5"]) == 0
    assert main(["riskbound", "--beta", "-0.25", "--prior-scale", "3.0", "--prior-p-r=0.25",
                 "--n-grid", "25,75"]) == 0
    assert seen == [
        RunConfig(
            experiment="figure2-subsample", n=60, reps=70, seed=8, alpha=1.5,
            sigma=2.0, c=1.25, pretest_form="scaled", a_n=12.5, k_n=None,
            beta_grid=(-0.2, 0.0, 0.2), b=40, m=30, datasets_per_beta=6,
            out="somewhere", workers=3,
        ),
        RunConfig(
            experiment="figure2-bootstrap", beta_grid=(0.0, 0.1), datasets_per_beta=7,
            k_n=4.5, workers=1,
        ),
        RunConfig(
            experiment="riskbound", beta=-0.25, prior_scale=3.0, prior_p_r=0.25, n_grid=(25, 75),
        ),
    ]


# ---------------------------------------------------------------------------
# the digest script


def test_every_run_of_the_digest_script_parses(monkeypatch):
    # scripts/output_digests.py is the byte-identity check of a change. Each of
    # its runs, as the argv it passes to cli.main, parses with every flag it
    # gives reaching the run's config, so a settings change that breaks one
    # fails here rather than at digest time.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "output_digests", root / "scripts" / "output_digests.py"
    )
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    seen = []
    monkeypatch.setattr(modelavg.cli, "run", lambda cfg: seen.append(cfg) or 0)
    for experiment, flags in digests.digest_runs():
        assert main(digests.cli_argv(experiment, flags, "5050", "2", "digests")) == 0
        config = seen.pop()
        assert (config.experiment, config.seed, config.workers) == (experiment, 5050, 2)
        assert len(flags) % 2 == 0, flags
        for flag, raw in zip(flags[::2], flags[1::2]):
            key = flag.removeprefix("--").replace("-", "_")
            assert getattr(config, key) == SETTINGS[key](raw, key), (experiment, flag)
