"""Correctness gate: CSV schemas, row counts, ranges and oracle agreement.

Each check returns ``(attempted, failed, problems)`` for one unit of work,
counted in the workload's operations: one resampled dataset for
``figure2_*`` and ``api_resample``, one grid-point row for ``mc_curves``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

import oracle

Z = 6.0  # standard errors allowed for values that depend on random resamples
RTOL = 1e-9  # values that depend only on the Monte Carlo streams
ORACLE_B = 4000  # oracle replicates per replicate-quantile check
REFERENCE_DESIGN_SEED = 5050  # the shipped n = 50 design is drawn from this seed
API_NAMES = ("ms", "bma_exact", "bma_bic", "ama")
QUANTILES = (0.1, 0.25, 0.5, 0.75, 0.9)

FIGURE2_HEADER = ["beta", "err_ms", "err_bma_bic", "err_ama", "datasets", "b", "excluded", "seed"]
MSE_HEADER = ["beta", "mse_ms", "mse_bma_bic", "mse_ama", "mse_u", "reps", "seed"]
KS_HEADER = [
    "beta", "ratio_ms", "ratio_bma_bic", "ratio_ama",
    "ks_ms_r", "ks_ms_u", "ks_bma_r", "ks_bma_u", "ks_ama_r", "ks_ama_u", "reps", "seed",
]
RISK_HEADER = ["n", "n_risk", "mc_se", "reps", "seed"]
DECAY_HEADER = ["n", "mean_p_r", "mean_sqrtn_p_r", "reps", "seed"]


def fingerprint(out_dir: Path) -> str:
    """Digest of every output file, so units of one run can be compared."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name in ("result.json", "spans.json"):
            continue
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def read_csv(path: Path, header: list[str]):
    """Rows as dicts of floats, or a problem string."""
    if not path.is_file():
        return None, f"{path.name}: missing"
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    if not lines or lines[0] != header:
        return None, f"{path.name}: header {lines[0] if lines else None} != {header}"
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            if len(line) != len(header):
                raise ValueError(f"{len(line)} fields")
            rows.append({k: float(v) for k, v in zip(header, line)})
        except ValueError as exc:
            return None, f"{path.name}:{number}: unparsable row ({exc})"
    return rows, None


def _design_matches(path: Path, seed: int, n: int = 50) -> bool:
    rows, problem = read_csv(path, ["i", "x1", "x2"])
    if problem or len(rows) != n:
        return False
    x1, x2 = oracle.uniform_design(seed, 0, n)
    return all(r["x1"] == a and r["x2"] == b for r, a, b in zip(rows, x1, x2))


def _close(value: float, expected: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - expected) <= atol + rtol * abs(expected)


def _in_range(value: float, lo: float, hi: float) -> bool:
    """lo <= value <= hi up to round-off: 100 * k / (k + 0) can give 100.00000000000001."""
    slack = 1e-12 * max(abs(lo), abs(hi) if math.isfinite(hi) else 0.0, 1.0)
    return math.isfinite(value) and lo - slack <= value <= hi + slack


def check_figure2(out_dir: Path, plan: dict) -> tuple[int, int, list[str]]:
    command = plan["commands"][0]
    method = command["experiment"].split("-", 1)[1]
    grid, per_beta, b = plan["grid"], plan["datasets_per_beta"], plan["b"]
    attempted = per_beta * len(grid)
    folder = out_dir / command["experiment"]
    rows, problem = read_csv(folder / f"resamp_error_{method}.csv", FIGURE2_HEADER)
    if problem is None and len(rows) != len(grid):
        problem = f"{len(rows)} rows, expected {len(grid)}"
    if problem is None and not _design_matches(folder / "design_n50.csv", plan["seed"]):
        problem = "design_n50.csv differs from the seed's frozen design"
    if problem:
        return attempted, attempted, [problem]
    _, x2 = oracle.uniform_design(plan["seed"], 0, 50)
    m = plan["m"] if method == "subsample" else None
    failed, problems = 0, []
    for i, (row, beta) in enumerate(zip(rows, grid)):
        excluded = int(row["excluded"])
        bad = []
        if row["beta"] != beta:
            bad.append(f"beta {row['beta']} != {beta}")
        if row["datasets"] + row["excluded"] != per_beta or row["datasets"] < 1 or excluded < 0:
            bad.append(f"datasets {row['datasets']} + excluded {row['excluded']} != {per_beta}")
        if row["b"] != b or row["seed"] != plan["seed"]:
            bad.append(f"b/seed columns {row['b']}/{row['seed']}")
        rng = np.random.default_rng([plan["seed"], i, 7])
        ref = oracle.resampling_error(x2, beta, m, per_beta, b, plan["reps"], rng)
        for name in oracle.FIGURE2_NAMES:
            value = row[f"err_{name}"]
            tol = Z * ref[name]["sd_diff"]
            if not _in_range(value, 0.0, 100.0):
                bad.append(f"err_{name} = {value} outside [0, 100]")
            elif abs(value - ref[name]["err"]) > tol:
                bad.append(f"err_{name} = {value:.4f}, oracle {ref[name]['err']:.4f} +- {tol:.4f}")
        failed += per_beta if bad else max(excluded, 0)
        if excluded:
            problems.append(f"beta {beta}: {excluded} datasets excluded")
        problems += [f"beta {beta}: {p}" for p in bad]
    return attempted, failed, problems


def _check_rows(rows, expected, header, exact_keys, tolerances, ranges, plan, name):
    """Per-row problems for one MC-curve CSV, compared with oracle rows."""
    problems = []
    for row, ref in zip(rows, expected):
        bad = []
        key = header[0]
        if row[key] != ref[key]:
            bad.append(f"{key} {row[key]} != {ref[key]}")
        if row["reps"] != plan["reps"] or row["seed"] != plan["seed"]:
            bad.append(f"reps/seed columns {row['reps']}/{row['seed']}")
        for col in exact_keys:
            atol = tolerances.get(col, 0.0)
            if not _close(row[col], ref[col], atol=atol):
                bad.append(f"{col} = {row[col]!r}, oracle {ref[col]!r}")
        for col, (lo, hi) in ranges.items():
            if not _in_range(row[col], lo, hi):
                bad.append(f"{col} = {row[col]!r} outside [{lo}, {hi}]")
        problems.append([f"{name} {key}={row[key]}: {p}" for p in bad])
    return problems


def check_mc(out_dir: Path, plan: dict) -> tuple[int, int, list[str]]:
    seed, reps = plan["seed"], plan["reps"]
    ks_atol = 2.0 / reps  # a last-ulp move can reorder one tie per ECDF step
    inf = math.inf
    specs = [
        ("figure1a/mse_curve.csv", MSE_HEADER, oracle.mse_rows, MSE_HEADER[1:5], {},
         {c: (0.0, inf) for c in MSE_HEADER[1:5]}),
        ("figure1b/ks_ratio.csv", KS_HEADER, oracle.ks_ratio_rows, KS_HEADER[4:10],
         {c: ks_atol for c in KS_HEADER[4:10]},
         {**{c: (0.0, 100.0) for c in KS_HEADER[1:4]}, **{c: (0.0, 1.0) for c in KS_HEADER[4:10]}}),
        ("riskbound/risk_bound.csv", RISK_HEADER, oracle.risk_bound_rows, RISK_HEADER[1:3], {},
         {c: (0.0, inf) for c in RISK_HEADER[1:3]}),
        ("decay/weight_decay.csv", DECAY_HEADER, oracle.weight_decay_rows, DECAY_HEADER[1:3], {},
         {"mean_p_r": (0.0, 1.0), "mean_sqrtn_p_r": (0.0, inf)}),
    ]
    attempted = failed = 0
    problems: list[str] = []
    for relpath, header, reference, exact_keys, tolerances, ranges in specs:
        expected = reference(seed, reps)
        attempted += len(expected)
        rows, problem = read_csv(out_dir / relpath, header)
        if problem is None and len(rows) != len(expected):
            problem = f"{relpath}: {len(rows)} rows, expected {len(expected)}"
        if problem is None and relpath.startswith("figure1"):
            folder = (out_dir / relpath).parent
            if not _design_matches(folder / "design_n50.csv", seed):
                problem = f"{folder.name}/design_n50.csv differs from the seed's frozen design"
        if problem:
            failed += len(expected)
            problems.append(problem)
            continue
        per_row = _check_rows(rows, expected, header, exact_keys, tolerances, ranges, plan, relpath)
        if header is KS_HEADER:
            for row, bad in zip(rows, per_row):
                for name, col in (("ms", "ms"), ("bma_bic", "bma"), ("ama", "ama")):
                    ratio = oracle.ks_ratio(row[f"ks_{col}_r"], row[f"ks_{col}_u"])
                    if not _close(row[f"ratio_{name}"], ratio, rtol=1e-12):
                        bad.append(f"ratio_{name} {row[f'ratio_{name}']!r} != {ratio!r} from ks")
        failed += sum(1 for bad in per_row if bad)
        problems += [p for bad in per_row for p in bad]
    return attempted, failed, problems


def _quantile_problems(key, summary, reference_sorted, b: int) -> list[str]:
    """Each replicate quantile x_q must sit at ECDF level ~q of the oracle sample."""
    problems = []
    if summary["size"] != b or not summary["finite"]:
        return [f"{key}: size {summary['size']}, finite {summary['finite']}"]
    size = reference_sorted.size
    for q, x_q in zip(QUANTILES, summary["quantiles"]):
        level = np.searchsorted(reference_sorted, x_q, side="right") / size
        tol = Z * math.sqrt(q * (1.0 - q) * (1.0 / b + 1.0 / size)) + 1.0 / b
        if not math.isfinite(x_q) or abs(level - q) > tol:
            problems.append(f"{key}: q{q} = {x_q:.4f} sits at oracle level {level:.4f}")
    return problems


def check_api(api: dict, plan: dict) -> tuple[int, int, list[str]]:
    specs = plan["datasets"]
    attempted = len(specs)
    x1 = np.asarray(api["x1"])
    x2 = np.asarray(api["x2"])
    ref_x1, ref_x2 = oracle.uniform_design(REFERENCE_DESIGN_SEED, 0, 50)
    if len(api["datasets"]) != attempted:
        return attempted, attempted, [f"{len(api['datasets'])} datasets reported"]
    if not (np.array_equal(x1, ref_x1) and np.array_equal(x2, ref_x2)):
        return attempted, attempted, ["reference design differs from its documented seed"]
    a_n, k_n = oracle.default_tuning(x1.size)
    seed, b, m = plan["seed"], plan["b"], plan["m"]
    failed, problems = 0, []
    for d, (spec, got) in enumerate(zip(specs, api["datasets"])):
        bad = []
        rng = np.random.default_rng([seed, d])
        y = plan["alpha"] * x1 + spec["beta"] * x2 + plan["sigma"] * rng.standard_normal(x1.size)
        y_mm = rng.normal(spec["mu"], 1.0, x1.size)
        got_y = np.asarray(got["y"])
        if not np.allclose(got_y, y, rtol=1e-12, atol=1e-12):
            bad.append("generated response differs from alpha*x1 + beta*x2 + sigma*z")
        if not np.array_equal(np.asarray(got["y_mm"]), y_mm):
            bad.append("mean-model sample differs")
        expected_keys = {f"{k}/{n}" for k in ("bootstrap", "subsample") for n in API_NAMES}
        if set(got["full"]) != set(API_NAMES) or set(got["samples"]) != expected_keys | {"mean_model"}:
            bad.append(f"estimates reported: {sorted(got['full'])}, {sorted(got['samples'])}")
            failed += 1
            problems += [f"dataset {d}: {p}" for p in bad]
            continue
        full = oracle.estimates(x1, x2, got_y, a_n, k_n)
        for name in API_NAMES:
            value = got["full"][name]
            if not _close(value, float(full[name])):
                bad.append(f"full-sample {name} = {value!r}, oracle {float(full[name])!r}")
        orng = np.random.default_rng([seed, d, 99])
        for method, size in (("bootstrap", None), ("subsample", m)):
            ref = oracle.replicate_distribution(x1, x2, got_y, size, ORACLE_B, orng, a_n, k_n)
            for name in API_NAMES:
                key = f"{method}/{name}"
                bad += _quantile_problems(key, got["samples"][key], ref[name], b)
        ref_mm = oracle.mean_model_distribution(np.asarray(got["y_mm"]), ORACLE_B, orng, a_n, k_n)
        bad += _quantile_problems("mean_model", got["samples"]["mean_model"], ref_mm, b)
        failed += bool(bad)
        problems += [f"dataset {d}: {p}" for p in bad]
    return attempted, failed, problems
