"""modelavg benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. This process drives all load: every unit of work runs in a
fresh interpreter (``child.py``), so ``setup_s`` measures a cold import.
Units are started while they are likely to end within ``--seconds`` (at least
``MIN_UNITS``), then the outputs are checked against the oracle. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("figure2_bootstrap", "figure2_subsample", "mc_curves", "api_resample")
SCALES = {
    # Reference scale of the paper's figures; "tiny" is for the benchmark's tests.
    "reference": {"reps": 5000, "b": 500, "datasets_per_beta": 100, "m": 20, "api_datasets": 2},
    "tiny": {"reps": 200, "b": 200, "datasets_per_beta": 4, "m": 20, "api_datasets": 1},
}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("fits_per_s", "1/s"), ("peak_rss_mb", "MB"))
MIN_UNITS = 3  # per kind of unit (untraced, traced)
SETUP_SAMPLES = 9  # set-up is short and noisy, so take the median of several
# A run must end within 180 s: no unit starts after LAST_START_S, and units are
# stopped at UNIT_DEADLINE_S, which leaves time for set-up probes and the gate.
LAST_START_S = 100.0
UNIT_DEADLINE_S = 140.0
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Block time of child.calibrate() on the measuring machine at its usual speed.
# setup_s and wall_s are multiplied by CAL_REF_S / (the run's median block time
# of the calibration made after set-up, or after the work, respectively), which
# removes the host's drift in speed; see README.md, "Noise".
CAL_REF_S = 0.08


def make_plan(workload: str, seed: int, scale: str) -> dict:
    """Everything a unit runs, derived from the workload seed alone."""
    size = SCALES[scale]
    reps, b, per_beta, m = size["reps"], size["b"], size["datasets_per_beta"], size["m"]
    rng = np.random.default_rng(seed)
    plan = {"workload": workload, "seed": seed, "src": str(ROOT / "src"), "alpha": 1.0,
            "sigma": 1.0, "reps": reps, "b": b, "m": m}
    if workload.startswith("figure2_"):
        method = workload.split("_", 1)[1]
        others = [beta for beta in oracle.FIGURE2_BETA_GRID if beta != 0.0]
        grid = [0.0, others[int(rng.integers(len(others)))]]
        flags = {"seed": str(seed), "reps": str(reps), "b": str(b),
                 "datasets_per_beta": str(per_beta), "beta_grid": ",".join(map(repr, grid))}
        if method == "subsample":
            flags["m"] = str(m)
        plan.update(kind="cli", grid=grid, datasets_per_beta=per_beta, commands=[
            {"experiment": f"figure2-{method}", "argv": ["figure2", f"--method={method}"],
             "flags": flags}])
        plan["operations"] = per_beta * len(grid)
        plan["fits"] = len(grid) * (reps + per_beta * (1 + b))
    elif workload == "mc_curves":
        flags = {"seed": str(seed), "reps": str(reps)}
        plan.update(kind="cli", commands=[
            {"experiment": name, "argv": [name], "flags": flags}
            for name in ("figure1a", "figure1b", "riskbound", "decay")])
        rows = 2 * len(oracle.MC_BETA_GRID) + 2 * len(oracle.N_GRID)
        plan["operations"] = rows
        plan["fits"] = rows * reps
    elif workload == "api_resample":
        grid = oracle.FIGURE2_BETA_GRID
        plan.update(kind="api", quantiles=gate.QUANTILES, datasets=[
            {"beta": grid[int(rng.integers(len(grid)))], "mu": grid[int(rng.integers(len(grid)))]}
            for _ in range(size["api_datasets"])])
        plan["operations"] = size["api_datasets"]
        # Per dataset: 4 estimators x {bootstrap, subsample} + the mean model,
        # each fitting the original data once and b replicates.
        plan["fits"] = size["api_datasets"] * 9 * (1 + b)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def run_child(plan_path: Path, out_dir: Path, mode: str, traced: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in BLAS_THREADS})
    out_dir.mkdir(parents=True)
    command = [sys.executable, str(BENCH / "child.py"), str(plan_path), str(out_dir), mode,
               "1" if traced else "0"]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"unit exceeded {timeout:.0f} s and was stopped"}
    path = out_dir / "result.json"
    result = json.loads(path.read_text()) if path.is_file() else {"ok": False}
    if not result.get("ok"):
        result["error"] = (result.get("error") or "") + stderr[-2000:]
    return result


def cpu_ticks() -> list[int] | None:
    """The machine's aggregate CPU counters (user, ..., steal), where readable."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after) -> float | None:
    """Share of the machine's CPU time taken by the hypervisor during the run."""
    if before is None or after is None or len(before) < 8 or sum(after) <= sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def environment(units: list[dict]) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    workers = sorted({w for u in units for w in u.get("workers", [])})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": 1,
        "workers": workers or None,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def describe(name: str, values: list[float], unit: str) -> str:
    return (f"{name} median {statistics.median(values):.6g} {unit} over {len(values)} samples"
            f" (min {min(values):.6g}, max {max(values):.6g})")


def api_fingerprint(result: dict) -> str:
    return hashlib.sha256(json.dumps(result.get("api"), sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="reference",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "modelavg" / "__init__.py").is_file():
        print(f"error: no modelavg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    plan = make_plan(args.workload, args.seed, args.scale)
    if args.trace:
        # One worker puts every span on one timeline, so self times add up.
        for command in plan.get("commands", []):
            command["flags"]["workers"] = "1"
    runs = BENCH / ".runs"
    run_dir = runs / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        ticks = cpu_ticks()
        units = measure(plan_path, run_dir, args, start)
        report = evaluate(plan, units, run_dir, args, steal_frac(ticks, cpu_ticks()))
        if args.trace:
            spans = [u for u in units if u.get("traced") and u.get("ok")]
            if spans:
                kept = runs / f"spans-{args.workload}-seed{args.seed}.json"
                shutil.copyfile(spans[-1]["spans_path"], kept)
                print(f"spans of the last traced unit: {kept.relative_to(ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(plan_path: Path, run_dir: Path, args, start: float) -> list[dict]:
    """Run units for about --seconds; keep the first unit's outputs."""
    plan = json.loads(plan_path.read_text())
    units: list[dict] = []
    last = 0.0  # how long the previous unit took
    while True:
        elapsed = time.perf_counter() - start
        traced = bool(args.trace) and len(units) % 2 == 1
        kinds = [u for u in units if u.get("traced", False) == traced]
        # Start no unit that would likely end after --seconds.
        enough = elapsed + last >= args.seconds and len(kinds) >= MIN_UNITS
        if units and (enough or elapsed > LAST_START_S):
            break
        out = run_dir / "out"
        result = run_child(plan_path, out, "unit", traced, UNIT_DEADLINE_S - elapsed)
        last = time.perf_counter() - start - elapsed
        result["traced"] = traced
        if result.get("ok"):
            result["fingerprint"] = (gate.fingerprint(out) if plan["kind"] == "cli"
                                     else api_fingerprint(result))
        if not units:
            out.rename(run_dir / "first")
        else:
            if traced and result.get("ok"):
                spans = run_dir / f"spans-{len(units)}.json"
                (out / "spans.json").rename(spans)
                result["spans_path"] = str(spans)
            shutil.rmtree(out)
        units.append(result)
        if not result.get("ok"):
            print(f"unit {len(units) - 1} failed:\n{result.get('error', '')}", file=sys.stderr)
    if not args.trace:
        samples = sum(1 for u in units if "setup_s" in u)
        for i in range(max(0, SETUP_SAMPLES - samples)):
            elapsed = time.perf_counter() - start
            if elapsed > LAST_START_S:
                break
            probe = run_child(plan_path, run_dir / f"setup-{i}", "setup", False,
                              UNIT_DEADLINE_S - elapsed)
            probe["probe"] = True
            units.append(probe)
    return units


def evaluate(plan: dict, units: list[dict], run_dir: Path, args, steal) -> dict:
    work = [u for u in units if not u.get("probe")]
    first = work[0]
    if first.get("ok"):
        if plan["kind"] == "api":
            _, first_failed, problems = gate.check_api(first["api"], plan)
        elif plan["workload"] == "mc_curves":
            _, first_failed, problems = gate.check_mc(run_dir / "first", plan)
        else:
            _, first_failed, problems = gate.check_figure2(run_dir / "first", plan)
    else:
        first_failed, problems = plan["operations"], ["unit 0 failed"]
    attempted = failed = 0
    for i, unit in enumerate(work):
        attempted += plan["operations"]
        if not unit.get("ok"):
            failed += plan["operations"]
        elif unit["fingerprint"] != first.get("fingerprint"):
            failed += plan["operations"]
            problems.append(f"unit {i}: outputs differ from unit 0")
        else:
            failed += first_failed
    for problem in problems[:50]:
        print(f"gate: {problem}")
    ok = [u for u in work if u.get("ok")]
    print(f"workload {plan['workload']} seed {plan['seed']} trace {args.trace}: "
          f"{len(work)} units, {len(ok)} ok, gate {'passed' if not failed else 'FAILED'}")
    print("env " + json.dumps({**environment(ok), "steal_frac": steal}))
    print(f"failed_frac {failed / attempted:.6g} (failed {failed} of {attempted} operations)")
    untraced = [u for u in ok if not u["traced"]]
    if args.trace:
        metrics = layer_report(plan, [u for u in ok if u["traced"]], untraced, units, run_dir)
    else:
        metrics = end_to_end_report(plan, untraced, units)
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end_report(plan: dict, untraced: list[dict], units: list[dict]) -> dict:
    """Medians over the run, with times scaled to the reference speed."""
    setups = [u for u in units if "setup_s" in u and not u.get("traced")]
    setup_blocks = [t for u in setups for t in u["cal_setup_blocks"]]
    work_blocks = [t for u in untraced for t in u["cal_work_blocks"]]
    setup_speed = CAL_REF_S / statistics.median(setup_blocks) if setup_blocks else 1.0
    work_speed = CAL_REF_S / statistics.median(work_blocks) if work_blocks else 1.0
    walls = [u["wall_s"] * work_speed for u in untraced]
    values = {"setup_s": [u["setup_cpu_s"] * setup_speed for u in setups], "wall_s": walls,
              "fits_per_s": [plan["fits"] / wall for wall in walls],
              "peak_rss_mb": [u["rss_kb"] / 1024.0 for u in untraced]}
    metrics = {}
    if setups:  # the speed the times were scaled by, and the unscaled times
        print(describe("cal_setup_block_s", setup_blocks, "s"))
        print(describe("raw_setup_s", [u["setup_s"] for u in setups], "s"))
        print(describe("setup_cpu_s", [u["setup_cpu_s"] for u in setups], "s"))
    if untraced:  # CPU time of all threads; steadier than wall time when the host steals
        print(describe("cal_work_block_s", work_blocks, "s"))
        print(describe("raw_wall_s", [u["wall_s"] for u in untraced], "s"))
        print(describe("cpu_s", [u["cpu_s"] for u in untraced], "s"))
    for name, unit in END_TO_END:
        if values[name]:
            print(describe(name, values[name], unit))
        metrics[name] = {"value": statistics.median(values[name]) if values[name] else 0.0,
                         "unit": unit}
    return metrics


def layer_report(plan, traced, untraced, units, run_dir) -> dict:
    per_unit = []
    for unit in traced:
        spans = json.loads(Path(unit["spans_path"]).read_text())["spans"]
        per_unit.append(tracing.layer_metrics(spans, unit["work_span"]))
        if unit.get("missing_wrappers"):
            print(f"trace: not found, not wrapped: {unit['missing_wrappers']}")
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_unit]
    if any(c != counts[0] for c in counts):
        print("trace: WARNING counts differ between traced units")
    excluded = 0
    if plan["workload"].startswith("figure2_"):
        rows, _ = gate.read_csv(
            next((run_dir / "first").rglob("resamp_error_*.csv"), run_dir / "missing"),
            gate.FIGURE2_HEADER)
        excluded = int(sum(r["excluded"] for r in rows or []))
    imports = [u["import_s"] for u in units if "import_s" in u]
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        if name == "experiments.excluded_datasets":
            value = excluded
        elif name == "setup.import_s":
            value = statistics.median(imports) if imports else 0.0
        elif name == "trace.overhead_frac":
            value = (statistics.median(u["wall_s"] for u in traced)
                     / statistics.median(u["wall_s"] for u in untraced) - 1.0
                     if traced and untraced else 0.0)
        elif not per_unit:
            value = 0
        elif name.endswith("_s"):
            value = statistics.median(m[name] for m in per_unit)
        else:
            value = per_unit[0][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
