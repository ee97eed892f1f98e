import argparse
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

import modelavg.cli
import modelavg.config
import modelavg.experiments
from modelavg.cli import main, run
from modelavg.config import (
    DEFAULT_SEED,
    EXPERIMENTS,
    SETTINGS,
    RunConfig,
    echo_config,
    parse_config,
    read_config_file,
)
from modelavg.errors import ConfigError
from modelavg.estimators import ESTIMATOR_NAMES
from modelavg.experiments import draw_dataset, make_scenario
from modelavg.model import compute_design_stats, response_stats, solve_normal_equations
from modelavg.resampling import STREAM_VERSION


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_reproduce_reference_scale():
    cfg = parse_config("figure1a", env={})
    assert cfg.n == 50
    assert cfg.reps == 5000
    assert cfg.c == pytest.approx(math.sqrt(2.0))
    assert cfg.m == 20  # 0.4 * n
    for n in (2, 3):  # never below the two rows a fit needs
        assert parse_config("figure2-subsample", overrides={"n": str(n)}, env={}).m == 2
    assert cfg.b == 500
    assert cfg.datasets_per_beta == 100
    assert cfg.seed == DEFAULT_SEED
    assert len(cfg.beta_grid) == 41
    assert cfg.beta_grid[0] == -1.0 and cfg.beta_grid[-1] == 1.0
    assert cfg.a_n is None  # resolved to (log n)^2 downstream


def test_all_workers_means_the_cpus_this_process_may_use(monkeypatch):
    # --workers 0 counts the CPUs of the process's affinity mask, not the machine's.
    monkeypatch.setattr(modelavg.config.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(modelavg.config.os, "cpu_count", lambda: 8)
    cfg = parse_config("figure1a", overrides={"workers": "0"}, env={})
    assert cfg.resolved_workers() == 1
    assert parse_config("figure1a", overrides={"workers": "3"}, env={}).resolved_workers() == 3
    # Where the platform has no affinity mask, the machine's count stands.
    monkeypatch.delattr(modelavg.config.os, "sched_getaffinity")
    assert cfg.resolved_workers() == 8


def test_figure2_default_grid_is_restricted():
    for method in ("bootstrap", "subsample"):
        grid = parse_config(f"figure2-{method}", env={}).beta_grid
        assert len(grid) == 17
        assert grid[0] == -0.4 and grid[-1] == 0.4


def test_unknown_experiment_is_a_config_error():
    # Refused before the table is asked for its default grid, and so with or
    # without a grid of its own.
    for overrides in ({}, {"beta_grid": "0,1"}):
        with pytest.raises(ConfigError, match="unknown experiment 'figure3'"):
            parse_config("figure3", overrides=overrides, env={})


def test_flags_override_file(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("n = 50\nseed = 9  # comment\n\n# full line comment\nreps = 100\n")
    cfg = parse_config(
        "figure1a", config_file=cfg_file, overrides={"n": "100", "seed": "7"}, env={}
    )
    assert cfg.n == 100
    assert cfg.seed == 7
    assert cfg.reps == 100


def test_env_seed_is_lowest_precedence(tmp_path):
    env = {"MODELAVG_SEED": "33"}
    assert parse_config("decay", env=env).seed == 33
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 44\n")
    assert parse_config("decay", config_file=cfg_file, env=env).seed == 44
    assert (
        parse_config("decay", config_file=cfg_file, overrides={"seed": "55"}, env=env).seed == 55
    )
    with pytest.raises(ConfigError):
        parse_config("decay", env={"MODELAVG_SEED": "not-a-number"})


def test_m_larger_than_n_names_both_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("figure2-subsample", overrides={"m": "60", "n": "50"}, env={})
    message = str(err.value)
    assert "m = 60" in message
    assert "n = 50" in message


def test_config_file_errors_carry_line_numbers(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("n = 50\nbogus = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_config("figure1a", config_file=bad_key, env={})
    assert "bad_key.cfg:2" in str(err.value)
    assert "bogus" in str(err.value)

    bad_syntax = tmp_path / "bad_syntax.cfg"
    bad_syntax.write_text("just words\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(bad_syntax)
    assert "bad_syntax.cfg:1" in str(err.value)

    bad_value = tmp_path / "bad_value.cfg"
    bad_value.write_text("reps = many\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(bad_value)
    assert "reps" in str(err.value)


def test_grid_parsing_forms():
    cfg = parse_config("figure1a", overrides={"beta_grid": "-1:1:5"}, env={})
    assert cfg.beta_grid == (-1.0, -0.5, 0.0, 0.5, 1.0)
    cfg = parse_config("figure1a", overrides={"beta_grid": "0.1,0.2"}, env={})
    assert cfg.beta_grid == (0.1, 0.2)
    with pytest.raises(ConfigError):
        parse_config("figure1a", overrides={"beta_grid": ""}, env={})
    with pytest.raises(ConfigError):
        parse_config("figure1a", overrides={"beta_grid": "a,b"}, env={})
    cfg = parse_config("riskbound", overrides={"n_grid": "25,50"}, env={})
    assert cfg.n_grid == (25, 50)


def test_validation_rejects_bad_combinations():
    for overrides in (
        {"n": "1"},
        {"reps": "0"},
        {"sigma": "-1"},
        {"c": "-0.1"},
        {"prior_p_r": "1.5"},
        {"workers": "-2"},
        {"ks_mode": "sideways"},
        {"pretest_form": "zform"},
        {"experiment": "figure1a"},  # checked in a config file, never set
        {"stream_version": str(STREAM_VERSION)},
        {"m": "1"},  # every one-row subsample is singular
    ):
        with pytest.raises(ConfigError):
            parse_config("figure1a", overrides=overrides, env={})


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", [f.name for f in fields(RunConfig) if "float" in f.type])
def test_non_finite_float_settings_are_refused(key, value):
    # Every bound check compares with < or <=, which a nan passes.
    with pytest.raises(ConfigError, match=f"^{key}: "):
        parse_config("figure1a", overrides={key: value}, env={})


# A value for every setting, each different from its default.
NON_DEFAULT_SETTINGS = {
    "n": "60", "reps": "70", "seed": "8", "alpha": "1.5", "beta": "-0.25", "sigma": "2.0",
    "c": "1.25", "pretest_form": "scaled", "a_n": "12.5", "k_n": "4.5", "prior_scale": "3.0",
    "prior_p_r": "0.25", "beta_grid": "-1:1:3", "b": "40", "m": "30", "datasets_per_beta": "6",
    "ks_mode": "pooled", "n_grid": "25,75", "out": "runs/#3", "workers": "3",
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_echo_config_roundtrips(tmp_path, experiment):
    cfg = parse_config(experiment, overrides=NON_DEFAULT_SETTINGS, env={})
    defaults = parse_config(experiment, env={})
    assert set(NON_DEFAULT_SETTINGS) == set(SETTINGS)
    for key in SETTINGS:
        assert getattr(cfg, key) != getattr(defaults, key), key
    path = tmp_path / "resolved_config.txt"
    echo_config(cfg, path)
    text = path.read_text()
    assert text.splitlines()[0] == f"experiment = {experiment}"
    assert "n = 60" in text
    assert "a_n = 12.5" in text
    assert "beta_grid = -1.0,0.0,1.0" in text
    assert text.splitlines()[-1] == f"stream_version = {STREAM_VERSION}"
    assert parse_config(experiment, config_file=path, env={}) == cfg


@pytest.mark.parametrize("out", [" sp ", "sp ", " sp", "a\nb", "a\rb", "runs #3", "runs\t#3", "#3"])
def test_echo_config_rejects_values_it_cannot_write_back(tmp_path, out):
    # Each of these would load back as a different value: surrounding
    # whitespace is stripped, a line break splits the line, and '#' at the
    # start of the value or after whitespace starts a comment.
    cfg = parse_config("figure1a", overrides={"out": out}, env={})
    path = tmp_path / "resolved_config.txt"
    with pytest.raises(ConfigError, match="^out: "):
        echo_config(cfg, path)
    assert not path.exists()


def test_hash_inside_a_value_is_not_a_comment(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("out = runs/#3\t# tab comment\n  # indented comment\nreps = 7 #8\n")
    assert read_config_file(cfg_file) == {"out": "runs/#3", "reps": 7}


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
    p1, p2, _ = response_stats(dataset)
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
    code = run(parse_config("figure1a", overrides={"reps": "10", "out": str(out)}, env={}))
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
    code = run(parse_config("figure1a", overrides={"reps": "10", "out": str(out)}, env={}))
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
    code = run(parse_config("figure1a", overrides={"reps": "10", "out": str(out)}, env={}))
    assert code == 1
    new = [name for name in seen if name not in old]
    assert len(new) == 3 and all(name.startswith(".") for name in new)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == old


def test_interrupted_run_removes_partial_files_and_propagates(tmp_path, monkeypatch):
    # Ctrl-C while figure2 resamples its second chunk of datasets (3 and 1 at
    # reps // b = 3): the interrupt reaches the caller, and the --out
    # directory the run created is gone with the files it had begun.
    out = tmp_path / "interrupted"
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
_TINY_FLAGS = ["--reps", "20", "--beta-grid", "0", "--n-grid", "25", "--b", "10",
               "--datasets-per-beta", "2", "--workers", "1"]


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
    argv = [name, *(["--method", method] if method else []), *_TINY_FLAGS, "--out", str(tmp_path)]
    assert main(argv) == 0
    header = (tmp_path / f"{EXPERIMENTS[experiment].stem}.csv").read_text().splitlines()[0]
    assert header == _readme_schemas()[_readme_csv_name(experiment)]


def test_readme_names_exactly_the_table():
    usage = re.search(r"^modelavg (\S+) \[--config FILE\]", _README.read_text(), re.M)
    parser = modelavg.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert usage.group(1).split("|") == list(sub.choices)
    assert set(_readme_schemas()) == {_readme_csv_name(e) for e in EXPERIMENTS}


@pytest.mark.parametrize("plot", [None, ("y_", "Toy title", "toy y")])
def test_a_table_entry_is_a_whole_experiment(tmp_path, monkeypatch, plot):
    # One entry gives the subcommand, its default grid, its rows and its files.
    calls = []

    def rows(config, scenario, workers):
        calls.append((config.beta_grid, scenario.design.n, workers))
        return [{"x": float(k), "y_ms": 2.0 * k, "seed": config.seed} for k in range(3)]

    design = plot is not None  # each flag on in one case, off in the other
    toy = modelavg.experiments.Experiment(rows, "toy", plot, design=design, beta_grid=(0.25,))
    monkeypatch.setitem(EXPERIMENTS, "toy", toy)
    out = tmp_path / "toy"
    assert main(["toy", "--n", "7", "--workers", "1", "--seed", "3", "--out", str(out)]) == 0
    assert calls == [((0.25,), 7, 1)]
    files = {"resolved_config.txt", "toy.csv"} | ({"toy.svg", "design_n7.csv"} if design else set())
    assert {p.name for p in out.iterdir()} == files
    assert (out / "toy.csv").read_text() == "x,y_ms,seed\n0.0,0.0,3\n1.0,2.0,3\n2.0,4.0,3\n"
    assert "experiment = toy\n" in (out / "resolved_config.txt").read_text()
    if plot:
        svg = (out / "toy.svg").read_text()
        assert "Toy title" in svg and "toy y" in svg and "MS (pretest)" in svg


def test_env_seed_through_cli(tmp_path, monkeypatch):
    monkeypatch.setenv("MODELAVG_SEED", "999")
    out = tmp_path / "env"
    assert _run_cli(["decay", "--reps", "20", "--n-grid", "25", "--out", str(out)]) == 0
    assert "seed = 999" in (out / "resolved_config.txt").read_text()


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
    monkeypatch.delenv("MODELAVG_SEED", raising=False)
    assert main([
        "figure2", "--method", "subsample", "--n", "60", "--reps", "70", "--seed", "8",
        "--alpha", "1.5", "--beta", "-0.25", "--sigma", "2.0", "--c", "1.25",
        "--pretest-form", "scaled", "--a-n", "12.5", "--k-n", "none", "--prior-scale", "3.0",
        "--prior-p-r", "0.25", "--beta-grid=-0.2:0.2:3", "--b", "40", "--m", "30",
        "--datasets-per-beta", "6", "--ks-mode", "pooled", "--n-grid", "25,75",
        "--out", "somewhere", "--workers", "3",
    ]) == 0
    assert main(["figure2", "--datasets-per-beta=7", "--beta-grid=0.0,0.1", "--workers=1",
                 "--k-n=4.5"]) == 0
    assert seen == [
        RunConfig(
            experiment="figure2-subsample", n=60, reps=70, seed=8, alpha=1.5, beta=-0.25,
            sigma=2.0, c=1.25, pretest_form="scaled", a_n=12.5, k_n=None, prior_scale=3.0,
            prior_p_r=0.25, beta_grid=(-0.2, 0.0, 0.2), b=40, m=30, datasets_per_beta=6,
            ks_mode="pooled", n_grid=(25, 75), out="somewhere", workers=3,
        ),
        RunConfig(
            experiment="figure2-bootstrap", beta_grid=(0.0, 0.1), m=20, datasets_per_beta=7,
            k_n=4.5, workers=1,
        ),
    ]
