"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _unit(tmp_path: Path, workload: str, traced: bool = False, seed: int = 3):
    """One tiny unit in a fresh interpreter; returns (plan, out_dir, result)."""
    plan = run.make_plan(workload, seed, "tiny")
    if traced:
        for command in plan.get("commands", []):
            command["flags"]["workers"] = "1"
    tmp_path.mkdir(parents=True, exist_ok=True)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    out = tmp_path / "out"
    result = run.run_child(plan_path, out, "unit", traced, timeout=120)
    assert result["ok"], result.get("error")
    return plan, out, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "4", "--seconds", "0",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert "failed_frac 0 " in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "mc_curves", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_end_to_end_times_are_scaled_to_reference_speed(capsys):
    # A host running the calibration kernel at half (setup) and a quarter (work)
    # of its reference speed: the scaled times are a half and a quarter of raw.
    unit = {"setup_s": 0.3, "setup_cpu_s": 0.2, "cal_setup_blocks": [2 * run.CAL_REF_S] * 3,
            "wall_s": 8.0, "cpu_s": 8.0, "cal_work_blocks": [4 * run.CAL_REF_S] * 3,
            "rss_kb": 2048, "traced": False}
    metrics = run.end_to_end_report({"fits": 100}, [unit], [unit])
    values = {name: metric["value"] for name, metric in metrics.items()}
    assert values == pytest.approx(
        {"setup_s": 0.1, "wall_s": 2.0, "fits_per_s": 50.0, "peak_rss_mb": 2.0})
    assert "raw_wall_s median 8 s" in capsys.readouterr().out


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_gate_rejects_corrupted_mc_csv(tmp_path):
    plan, out, _ = _unit(tmp_path, "mc_curves")
    attempted, failed, problems = gate.check_mc(out, plan)
    assert (attempted, failed) == (plan["operations"], 0), problems

    mse = out / "figure1a" / "mse_curve.csv"
    original = mse.read_text()

    def nudge(rows):  # a wrong estimate: one MSE off by one part in a million
        rows[3][1] = repr(float(rows[3][1]) * (1 + 1e-6))

    _rewrite_csv(mse, nudge)
    assert gate.check_mc(out, plan)[1] == 1
    mse.write_text(original)
    _rewrite_csv(mse, lambda rows: rows.pop())
    assert gate.check_mc(out, plan)[1] == 41
    mse.write_text(original.replace("mse_u", "mse_x", 1))
    assert gate.check_mc(out, plan)[1] == 41
    mse.write_text(original)
    ks = out / "figure1b" / "ks_ratio.csv"
    _rewrite_csv(ks, lambda rows: rows[5].__setitem__(1, "101.0"))
    assert gate.check_mc(out, plan)[1] == 1


def test_gate_rejects_corrupted_figure2_csv(tmp_path):
    plan, out, _ = _unit(tmp_path, "figure2_bootstrap")
    assert gate.check_figure2(out, plan)[1] == 0
    path = out / "figure2-bootstrap" / "resamp_error_bootstrap.csv"
    original = path.read_text()
    per_beta = plan["datasets_per_beta"]

    def wrong_error(rows):  # a broken engine: error far outside its MC spread
        rows[1][3] = repr(min(float(rows[1][3]) + 40.0, 99.0))

    _rewrite_csv(path, wrong_error)
    assert gate.check_figure2(out, plan)[1] == per_beta
    path.write_text(original)
    _rewrite_csv(path, lambda rows: rows[2].__setitem__(6, "1"))  # datasets + excluded
    assert gate.check_figure2(out, plan)[1] == per_beta
    path.write_text(original)
    _rewrite_csv(path, lambda rows: rows.pop())
    assert gate.check_figure2(out, plan)[1] == plan["operations"]


def test_gate_rejects_wrong_api_estimates(tmp_path):
    plan, _, result = _unit(tmp_path, "api_resample")
    api = result["api"]
    assert gate.check_api(api, plan)[1] == 0
    wrong = json.loads(json.dumps(api))
    wrong["datasets"][0]["full"]["bma_bic"] *= 1 + 1e-6
    assert gate.check_api(wrong, plan)[1] == 1
    wrong = json.loads(json.dumps(api))
    quantiles = wrong["datasets"][0]["samples"]["subsample/ama"]["quantiles"]
    quantiles[2] += 3.0
    assert gate.check_api(wrong, plan)[1] == 1


def _layers(out: Path, result: dict) -> dict:
    spans = json.loads((out / "spans.json").read_text())["spans"]
    return tracing.layer_metrics(spans, result["work_span"])


def test_traced_counts_equal_configured_work(tmp_path):
    plan, out, result = _unit(tmp_path / "f2", "figure2_subsample", traced=True)
    layers = _layers(out, result)
    calls = len(plan["grid"]) * plan["datasets_per_beta"]
    assert layers["experiments.resampled_estimates.calls"] == calls
    assert layers["experiments.resampled_estimates.replicates"] == plan["b"] * calls
    assert layers["experiments.ks.calls"] == 3 * calls
    assert layers["model.generate_response.calls"] == calls
    assert layers["estimators.pipeline.calls"] == calls
    assert layers["experiments.batch_estimates.rows"] == plan["reps"] * len(plan["grid"])
    assert layers["cli.write.calls"] == 4

    plan, out, result = _unit(tmp_path / "mc", "mc_curves", traced=True)
    layers = _layers(out, result)
    grid, sweep = 41, 6
    assert layers["experiments.batch_estimates.calls"] == 2 * grid + sweep
    assert layers["experiments.batch_estimates.rows"] == plan["reps"] * (2 * grid + sweep)
    assert layers["experiments.ks.calls"] == 6 * grid
    assert layers["experiments.ks.points"] == 6 * grid * 2 * plan["reps"]
    assert layers["experiments.resampled_estimates.calls"] == 0

    plan, out, result = _unit(tmp_path / "api", "api_resample", traced=True)
    layers = _layers(out, result)
    datasets = len(plan["datasets"])
    assert layers["resampling.resample_many.calls"] == 8 * datasets
    assert layers["resampling.resample_many.replicates"] == 8 * datasets * plan["b"]
    assert layers["estimators.pipeline.calls"] == 8 * datasets * (plan["b"] + 1)
    assert layers["resampling.attempts"] == 8 * datasets * (plan["b"] + 1)
    assert layers["resampling.singular_redraws"] == 0
    assert layers["resampling.useful_per_attempt"] == 1.0
    assert layers["resampling.mean_model_bootstrap.calls"] == datasets
    assert layers["model.Dataset.rows.calls"] == 8 * datasets * plan["b"]


def test_self_time_subtracts_union_of_children():
    spans = [
        [1, "root", 0.0, 10.0, None, "r", None, {}],
        [2, "a", 1.0, 4.0, 1, "r", None, {}],
        [3, "b", 3.0, 6.0, 1, "r", None, {}],  # overlaps a
        [4, "c", 2.0, 3.0, 2, "r", None, {}],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
