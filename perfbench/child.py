"""One unit of a workload in a fresh interpreter: set up, run, report.

Usage: child.py PLAN_JSON OUT_DIR {unit,setup} {0,1}

The set-up phase (``setup_s``) is a cold ``import modelavg`` plus config
parsing and the design/scenario freeze (for ``api_resample``: reference-design
load and pipeline construction). The work phase (``wall_s``) follows; outputs
go to OUT_DIR and a summary to OUT_DIR/result.json. With tracing on, spans
around calls into every modelavg module go to OUT_DIR/spans.json.

A fixed calibration kernel runs on one thread after set-up, and after the work
on as many threads as the work used, so the driver can express each time at a
reference machine speed (see ``calibrate``).
"""

import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

API_NAMES = ("ms", "bma_exact", "bma_bic", "ama")
CAL_BLOCKS = 3


def calibrate(threads: int, clock=time.perf_counter) -> list[float]:
    """Block times of a fixed kernel that shares no code with modelavg.

    The kernel mixes interpreted Python with small numpy solves, like the
    program, and runs on as many threads at once as the work does. The host's
    speed drifts by up to 2x over minutes, and the kernel's time follows that
    drift, so it serves as the unit of speed. A block's time is per kernel run,
    read from ``clock``.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(50, 3))

    def kernel():
        x = 0
        for i in range(400_000):
            x += i * i % 7
        for _ in range(3_000):
            np.linalg.solve(a.T @ a, a.T @ a[:, 0])

    times = []
    for _ in range(CAL_BLOCKS):
        pool = [threading.Thread(target=kernel) for _ in range(threads)]
        t = clock()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        times.append((clock() - t) / threads)
    return times


def setup_cli(plan: dict):
    import modelavg
    import modelavg.cli  # noqa: F401  (the CLI's own imports are part of set-up)

    configs = [
        modelavg.config.parse_config(command["experiment"], overrides=command["flags"])
        for command in plan["commands"]
    ]
    first = configs[0]
    modelavg.make_scenario(n=first.n, seed=first.seed, reps=first.reps, beta=first.beta)
    return configs


def work_cli(plan: dict, state, out_dir: Path) -> dict:
    import modelavg.cli

    for command in plan["commands"]:
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in command["flags"].items()]
        argv = command["argv"] + flags + [f"--out={out_dir / command['experiment']}"]
        status = modelavg.cli.main(argv)
        if status != 0:
            raise RuntimeError(f"modelavg {' '.join(argv)} exited with status {status}")
    return {"workers": [config.resolved_workers() for config in state]}


def setup_api(plan: dict):
    import modelavg

    design = modelavg.load_reference_design()
    tuning = modelavg.default_tuning(design.n)
    pretest = modelavg.PretestConfig()
    pipes = {
        name: modelavg.estimators.make_pipeline(name, plan["sigma"], pretest, tuning)
        for name in API_NAMES
    }
    return design, tuning, pipes


def work_api(plan: dict, state, out_dir: Path):
    """Library calls only; returns what the gate needs (computed untimed later)."""
    import numpy as np
    from modelavg import model, resampling, weights

    design, tuning, pipes = state
    root_n = float(np.sqrt(design.n))

    def weight_u(t):
        return weights.adaptive_weights(t / root_n, tuning).p_u

    seed, b, m = plan["seed"], plan["b"], plan["m"]
    kept = []
    for d, spec in enumerate(plan["datasets"]):
        rng = np.random.default_rng([seed, d])
        params = model.TrueParams(alpha=plan["alpha"], beta=spec["beta"], sigma=plan["sigma"])
        ds = model.generate_response(design, params, rng)
        samples = {}
        for k, name in enumerate(API_NAMES):
            samples[f"bootstrap/{name}"] = resampling.paired_bootstrap(
                ds, pipes[name], resampling.ResamplePlan(b=b), np.random.default_rng([seed, d, 1, k])
            )
            samples[f"subsample/{name}"] = resampling.subsample_distribution(
                ds, pipes[name], resampling.ResamplePlan(b=b, m=m),
                np.random.default_rng([seed, d, 2, k]),
            )
        y_mm = rng.normal(spec["mu"], 1.0, design.n)
        samples["mean_model"] = resampling.mean_model_bootstrap(
            y_mm, weight_u, b, np.random.default_rng([seed, d, 3])
        )
        kept.append((ds, y_mm, samples))
    return kept


def api_check_data(state, kept, quantiles) -> dict:
    import numpy as np

    design, _, pipes = state
    datasets = []
    for ds, y_mm, samples in kept:
        summary = {}
        for key, sample in samples.items():
            values = np.asarray(sample.values)
            summary[key] = {
                "size": int(values.size),
                "finite": bool(np.all(np.isfinite(values))),
                "quantiles": [sample.quantile(q) for q in quantiles],
            }
        datasets.append({
            "y": ds.y.tolist(),
            "y_mm": y_mm.tolist(),
            "full": {name: float(pipes[name](ds)) for name in API_NAMES},
            "samples": summary,
        })
    return {"x1": design.x1.tolist(), "x2": design.x2.tolist(), "datasets": datasets}


KINDS = {"cli": (setup_cli, work_cli), "api": (setup_api, work_api)}


def main(argv: list[str]) -> int:
    plan_path, out_dir, mode, trace = argv[0], Path(argv[1]), argv[2], argv[3] == "1"
    plan = json.loads(Path(plan_path).read_text())
    result: dict = {"ok": False}
    try:
        setup, work = KINDS[plan["kind"]]
        t0, c0 = time.perf_counter(), time.process_time()
        import modelavg

        result["import_s"] = time.perf_counter() - t0
        src = Path(plan["src"]).resolve()
        if src not in Path(modelavg.__file__).resolve().parents:
            raise RuntimeError(f"imported modelavg from {modelavg.__file__}, not from {src}")
        tracer = None
        if trace:
            from tracing import Tracer, install

            tracer = Tracer(run_id=out_dir.name)
            install(tracer)
            setup_span = tracer.open("setup")
        state = setup(plan)
        result["setup_s"] = time.perf_counter() - t0
        result["setup_cpu_s"] = time.process_time() - c0
        if tracer is not None:
            tracer.close(setup_span)
        result["cal_setup_blocks"] = calibrate(1, time.process_time)
        if mode == "unit":
            if tracer is not None:
                work_span = tracer.open("work")
            t1, c1 = time.perf_counter(), time.process_time()
            output = work(plan, state, out_dir)
            result["wall_s"] = time.perf_counter() - t1
            result["cpu_s"] = time.process_time() - c1
            if tracer is not None:
                tracer.close(work_span)
                result["work_span"] = work_span[0]
                result["missing_wrappers"] = tracer.missing
                tracer.write(out_dir / "spans.json")
            threads = max(c.resolved_workers() for c in state) if plan["kind"] == "cli" else 1
            result["cal_work_blocks"] = calibrate(threads)
            if plan["kind"] == "cli":
                result.update(output)
            else:
                result["api"] = api_check_data(state, output, plan["quantiles"])
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["ok"] = True
    except Exception:
        result["error"] = traceback.format_exc()
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
