#!/usr/bin/env python3
"""Record one run of every benchmark workload as ``BENCH_<label>.json``.

    python3 scripts/bench_record.py --label LABEL [--seed 1]

Runs ``perfbench/run.py --workload W --seed S --trace 0`` of this checkout for
each workload that ``BENCHMARK.json`` lists, one after another, and reads each
run's report, the last line it prints. The file written at the root of the
checkout holds, per workload, the report's metrics with their units (each a
median over the run), whether its outputs passed the gate and how many
operations failed; and, for the whole record, the seed, the git commit (with
whether the tree differed from it), and the Python and numpy versions. A
record is one run per workload: compare two records only as one pair of runs.

A parent commit's record is taken in a clone checked out at that commit::

    git clone -q . DIR && git -C DIR checkout -q --detach REV
    python3 DIR/scripts/bench_record.py --label LABEL-parent

The clone has git metadata, so its record names REV; a ``git archive``
extraction has none, and its record's commit reads null.
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(lines[-1])
    return {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not args.label or "/" in args.label:
        parser.error("--label must be a non-empty name without '/'")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for spec in benchmark["workloads"]:
        print(f"running {spec['name']} (seed {args.seed})", file=sys.stderr)
        workloads[spec["name"]] = run_workload(spec["name"], args.seed)
    status = git("status", "--porcelain", "--untracked-files=no")
    record = {
        "label": args.label,
        "seed": args.seed,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
