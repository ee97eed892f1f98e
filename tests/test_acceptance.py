"""Acceptance suite: one test per criterion, each printing PASS/FAIL lines.

Criteria 4-6 run at full reference scale (n = 50, 5000 replications, 41-point
grid, 100 datasets x 500 resamples per grid point, fixed seed). Setting
MODELAVG_ACCEPTANCE_SMOKE=1 downscales criterion 6 to its smoke mode
(20 datasets, 200 resamples), which checks its sub-criterion (i) only.
"""

import math
import os
import time

import numpy as np

from modelavg.cli import main
from modelavg.estimators import Pipeline, make_pipeline
from modelavg.experiments import (
    Scenario,
    draw_dataset,
    ks_ratio_curve,
    make_scenario,
    mc_estimator_draws,
    mse_curve,
    resampling_error_curve,
    risk_bound_sweep,
    weight_decay_sweep,
)
from modelavg.model import (
    TrueParams,
    compute_design_stats,
    make_uniform_design,
    response_stats,
    solve_normal_equations,
)
from modelavg.resampling import ResamplePlan, mean_model_bootstrap, paired_bootstrap
from modelavg.weights import adaptive_p_r, stable_sigmoid

from conftest import dense_posterior_oracle, ols_normal_equation_oracle, random_dataset

ACCEPTANCE_SEED = 5050
FULL_FIGURE2 = os.environ.get("MODELAVG_ACCEPTANCE_SMOKE") != "1"


def _check(failures, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {label}: {status}{' — ' + detail if detail else ''}")
    if not ok:
        failures.append(f"{label}: {detail}")


def _finish(failures):
    assert not failures, "failed sub-criteria: " + "; ".join(failures)


def test_criterion_01_closed_form_identity():
    failures = []
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    r_only = Pipeline(("r",), 1.0)
    for _ in range(10_000):
        ds = random_dataset(rng)
        stats = compute_design_stats(ds.design)
        p1, p2, _ = response_stats(ds)
        alpha_u, beta_u = solve_normal_equations(
            stats.s11, stats.s22, stats.s12, stats.det, p1, p2
        )
        alpha_r = r_only.fit(ds)[0]["r"]
        rhs = alpha_u + beta_u * stats.s12 / stats.s11
        worst = max(worst, abs(alpha_r - rhs) / (1.0 + abs(alpha_r)))
    elapsed = time.monotonic() - start
    _check(failures, "1 identity", worst < 1e-10, f"max rel dev {worst:.2e} over 10,000 datasets")
    _check(failures, "1 runtime", elapsed < 5.0, f"{elapsed:.2f}s (< 5s)")
    _finish(failures)


def test_criterion_02_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    worst_ols = 0.0
    for _ in range(1000):
        ds = random_dataset(rng)
        stats = compute_design_stats(ds.design)
        p1, p2, _ = response_stats(ds)
        alpha_u, beta_u = solve_normal_equations(
            stats.s11, stats.s22, stats.s12, stats.det, p1, p2
        )
        a_or, b_or = ols_normal_equation_oracle(ds)
        scale = 1.0 + abs(a_or) + abs(b_or)
        worst_ols = max(worst_ols, abs(alpha_u - a_or) / scale, abs(beta_u - b_or) / scale)
    worst_post = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 21))
        ds = random_dataset(rng, n=n)
        sigma = float(rng.uniform(0.3, 2.0))
        p_r = Pipeline(("bma_exact",), sigma).fit(ds)[1]["bma_exact"]
        worst_post = max(worst_post, abs(p_r - dense_posterior_oracle(ds, sigma)))
    elapsed = time.monotonic() - start
    _check(failures, "2 OLS vs normal equations", worst_ols < 1e-8, f"max dev {worst_ols:.2e}")
    _check(failures, "2 low-rank vs dense marginal", worst_post < 1e-8, f"max dev {worst_post:.2e}")
    _check(failures, "2 runtime", elapsed < 10.0, f"{elapsed:.2f}s (< 10s)")
    _finish(failures)


def test_criterion_03_adaptive_weight_properties():
    failures = []
    start = time.monotonic()
    a_n, k_n = 16.0, 0.25
    grid = np.linspace(0.0, 50.0, 10_000)
    vals = adaptive_p_r(grid, a_n, k_n)
    _check(failures, "3 range", bool(np.all((vals >= 0.0) & (vals <= 0.5))),
           f"values in [{vals.min():.3g}, {vals.max():.3g}]")
    _check(failures, "3 p(0) exact", float(adaptive_p_r(0.0, a_n, k_n)) == 0.5)
    _check(failures, "3 even", bool(np.all(adaptive_p_r(grid, a_n, k_n) == adaptive_p_r(-grid, a_n, k_n))))
    diffs = np.diff(vals)
    _check(failures, "3 non-increasing", bool(np.all(diffs <= 1e-12)), f"max increase {diffs.max():.2e}")
    worked = float(adaptive_p_r(0.5, a_n, k_n))
    _check(failures, "3 worked value", abs(worked - 0.060837) <= 1e-5, f"p(0.5) = {worked:.6f}")
    elapsed = time.monotonic() - start
    _check(failures, "3 runtime", elapsed < 1.0, f"{elapsed:.2f}s (< 1s)")
    _finish(failures)


def _full_scale_scenario():
    return make_scenario(n=50, seed=ACCEPTANCE_SEED, reps=5000, alpha=1.0, beta=0.0, sigma=1.0)


def _beta_grid_41():
    return [float(v) for v in np.linspace(-1.0, 1.0, 41)]


def _mse_se(scenario, grid, beta, name):
    idx = grid.index(beta)
    cell = Scenario(
        design=scenario.design,
        params=TrueParams(alpha=1.0, beta=beta, sigma=1.0),
        pretest=scenario.pretest,
        adaptive=scenario.adaptive,
        reps=scenario.reps,
        seed=scenario.seed,
    )
    draws = mc_estimator_draws(cell, (name,), grid_index=idx)[0][name]
    sq = (draws - 1.0) ** 2
    return float(np.std(sq, ddof=1) / np.sqrt(sq.size))


def test_criterion_04_figure1a_shape():
    failures = []
    scenario = _full_scale_scenario()
    grid = _beta_grid_41()
    rows = {round(r["beta"], 10): r for r in mse_curve(grid, scenario, workers=4)}

    inner = [b for b in grid if abs(b) <= 0.2 + 1e-9]
    for beta in inner:
        row = rows[round(beta, 10)]
        for name in ("ms", "bma_bic", "ama"):
            ok = row[f"mse_{name}"] < row["mse_u"]
            _check(
                failures, f"4(i) {name} beats U at beta={beta:+.2f}", ok,
                f"{row[f'mse_{name}']:.5f} vs U {row['mse_u']:.5f}",
            )
    middle = [b for b in grid if 0.4 - 1e-9 <= abs(b) <= 0.7 + 1e-9]
    worst = None
    ok_all = True
    for beta in middle:
        row = rows[round(beta, 10)]
        for name in ("ms", "bma_bic", "ama"):
            ok = row["mse_u"] < row[f"mse_{name}"]
            ok_all &= ok
            if not ok and worst is None:
                worst = (beta, name)
    _check(failures, "4(ii) U beats all three on 0.4 <= |beta| <= 0.7", ok_all,
           "first violation at " + str(worst) if worst else "all 42 comparisons hold")
    for beta in (-1.0, 1.0):
        row = rows[round(beta, 10)]
        se_u = _mse_se(scenario, grid, beta, "u")
        for name in ("ms", "bma_bic", "ama"):
            se_j = _mse_se(scenario, grid, beta, name)
            gap = abs(row[f"mse_{name}"] - row["mse_u"])
            tol = 3.0 * math.hypot(se_j, se_u)
            _check(
                failures, f"4(iii) {name} ~ U at beta={beta:+.0f}", gap <= tol,
                f"gap {gap:.2e} vs 3 MC se {tol:.2e}",
            )
    _finish(failures)


def test_criterion_05_figure1b_shape():
    failures = []
    scenario = _full_scale_scenario()
    grid = _beta_grid_41()
    rows = {round(r["beta"], 10): r for r in ks_ratio_curve(grid, scenario, workers=4)}
    at0 = rows[0.0]
    _check(
        failures, "5 ordering ratio_ms < ratio_bma_bic at beta=0",
        at0["ratio_ms"] < at0["ratio_bma_bic"],
        f"MS {at0['ratio_ms']:.2f} vs BMA-BIC {at0['ratio_bma_bic']:.2f}",
    )
    _check(
        failures, "5 ordering ratio_bma_bic < ratio_ama at beta=0",
        at0["ratio_bma_bic"] < at0["ratio_ama"],
        f"BMA-BIC {at0['ratio_bma_bic']:.2f} vs AMA {at0['ratio_ama']:.2f}",
    )
    for beta in (-1.0, 1.0):
        row = rows[round(beta, 10)]
        ok = all(row[f"ratio_{name}"] > 85.0 for name in ("ms", "bma_bic", "ama"))
        _check(
            failures, f"5 ratios > 85 at beta={beta:+.0f}", ok,
            f"MS {row['ratio_ms']:.1f} BMA {row['ratio_bma_bic']:.1f} AMA {row['ratio_ama']:.1f}",
        )
    _finish(failures)


def test_criterion_06_figure2_shape():
    failures = []
    scenario = _full_scale_scenario()
    if FULL_FIGURE2:
        datasets, b = 100, 500
        grid = [float(v) for v in np.linspace(-0.4, 0.4, 17)]
    else:
        datasets, b = 20, 200
        grid = [round(v, 10) for v in np.arange(-0.3, 0.31, 0.05) if 0.1 - 1e-9 <= abs(v)]
    boot = resampling_error_curve(
        grid, scenario, ResamplePlan(b=b), datasets_per_beta=datasets, workers=4
    )
    band = [r for r in boot if 0.1 - 1e-9 <= abs(r["beta"]) <= 0.3 + 1e-9]
    for row in band:
        for name in ("ms", "bma_bic"):
            ok = row["err_ama"] < row[f"err_{name}"]
            _check(
                failures, f"6(i) AMA below {name} at beta={row['beta']:+.2f}", ok,
                f"AMA {row['err_ama']:.2f} vs {name} {row[f'err_{name}']:.2f}",
            )
    if FULL_FIGURE2:
        sub = resampling_error_curve(
            grid, scenario, ResamplePlan(b=b, m=20), datasets_per_beta=datasets, workers=4
        )
        for name in ("ms", "bma_bic", "ama"):
            diffs = [abs(rb[f"err_{name}"] - rs[f"err_{name}"]) for rb, rs in zip(boot, sub)]
            mean_diff = float(np.mean(diffs))
            # < 0.1 on the raw KS scale = < 10 on the 100x reported scale.
            _check(
                failures, f"6(ii) bootstrap ~ subsample for {name}", mean_diff < 10.0,
                f"mean |diff| {mean_diff:.2f} (100x scale)",
            )
    else:
        print("ACCEPTANCE 6(ii): SKIPPED (smoke mode checks criterion (i) only; "
              "unset MODELAVG_ACCEPTANCE_SMOKE for the full run)")
    _finish(failures)


def test_criterion_07_risk_bound_sweep():
    failures = []
    n_grid = [25, 50, 100, 200, 400, 800]
    rows = risk_bound_sweep(n_grid, make_scenario(n=50, seed=ACCEPTANCE_SEED, reps=5000, beta=0.5))
    max_risk = max(r["n_risk"] for r in rows)
    _check(failures, "7 finite", bool(np.isfinite(max_risk)), f"max n*risk {max_risk:.3f}")
    from modelavg.experiments import stream

    last = rows[-1]
    design = make_uniform_design(800, stream(ACCEPTANCE_SEED, 0, len(n_grid) - 1))
    stats = compute_design_stats(design)
    u_risk = 800 * stats.s22 / stats.det
    lo, hi = 0.1 * u_risk, 10.0 * u_risk
    ok = (max_risk - 3 * max(r["mc_se"] for r in rows) < hi) and (
        max_risk + 3 * max(r["mc_se"] for r in rows) > lo
    )
    _check(
        failures, "7 envelope", ok,
        f"max n*risk {max_risk:.3f} within [{lo:.3f}, {hi:.3f}] of U-risk {u_risk:.3f} net of 3 se",
    )
    _finish(failures)


def test_criterion_08_weight_decay_and_bootstrap_trend():
    failures = []
    rows_alt = weight_decay_sweep(
        [50, 800], make_scenario(n=50, seed=ACCEPTANCE_SEED, reps=5000, beta=0.5)
    )
    halved = rows_alt[1]["mean_sqrtn_p_r"] < 0.5 * rows_alt[0]["mean_sqrtn_p_r"]
    _check(
        failures, "8 sqrt(n) weight decay at beta=0.5", halved,
        f"n=50: {rows_alt[0]['mean_sqrtn_p_r']:.4f}, n=800: {rows_alt[1]['mean_sqrtn_p_r']:.4f}",
    )
    rows_null = weight_decay_sweep(
        [800], make_scenario(n=50, seed=ACCEPTANCE_SEED, reps=5000, beta=0.0)
    )
    mean_p = rows_null[0]["mean_p_r"]
    _check(failures, "8 null weight near 1/2 at n=800", 0.45 <= mean_p <= 0.55, f"mean p_r {mean_p:.4f}")

    for beta in (0.0, 0.5):
        means = {}
        for n in (25, 100):
            scenario = make_scenario(
                n=n, seed=ACCEPTANCE_SEED, reps=5000, alpha=1.0, beta=beta, sigma=1.0
            )
            truth = mc_estimator_draws(scenario, ("ama",))[0]["ama"]
            truth = np.sqrt(n) * (truth - 1.0)
            pipeline = make_pipeline("ama", 1.0, scenario.pretest, scenario.adaptive)
            plan = ResamplePlan(b=400)
            from modelavg.experiments import _ks_arrays, stream

            ks_vals = []
            for d in range(50):
                ds = draw_dataset(scenario, dataset_index=d)
                boot = paired_bootstrap(ds, pipeline, plan, stream(ACCEPTANCE_SEED, 3, 0, d))
                ks_vals.append(_ks_arrays(truth, boot.values))
            means[n] = float(np.mean(ks_vals))
        _check(
            failures, f"8 bootstrap KS decreases n=25 -> n=100 at beta={beta}",
            means[100] < means[25],
            f"mean KS {means[25]:.4f} -> {means[100]:.4f}",
        )
    _finish(failures)


def test_criterion_09_mean_model():
    failures = []
    rng = np.random.default_rng(909)
    mu, n, trials, b = 0.5, 100, 1000, 999
    covered = 0
    root_n = math.sqrt(n)
    for _ in range(trials):
        y = rng.normal(mu, 1.0, n)
        sample = mean_model_bootstrap(y, lambda t: 1.0, b, rng)
        lo = y.mean() - sample.quantile(0.975) / root_n
        hi = y.mean() - sample.quantile(0.025) / root_n
        covered += lo <= mu <= hi
    coverage = covered / trials
    _check(
        failures, "9 coverage with W == 1", abs(coverage - 0.95) <= 0.03,
        f"{coverage:.3f} over {trials} trials",
    )

    # Null-reflecting centering with a logistic weight, hand-checked on n = 1
    # (the resample is forced) and on an enumerated two-point sample.
    y1 = 0.8
    w = lambda t: float(stable_sigmoid(t))
    sample = mean_model_bootstrap(np.array([y1]), w, 4, np.random.default_rng(1))
    expected = w(0.0) * y1 - w(y1) * y1
    ok_n1 = bool(np.allclose(sample.values, expected, rtol=1e-12))
    _check(failures, "9 formula (n=1 forced resample)", ok_n1)

    y = np.array([0.0, 3.0])
    ybar = 1.5
    mu_hat = w(math.sqrt(2) * ybar) * ybar
    possible = {
        round(math.sqrt(2) * (w(math.sqrt(2) * (m - ybar)) * m - mu_hat), 12)
        for m in (0.0, 1.5, 3.0)
    }
    got = {
        round(v, 12)
        for v in mean_model_bootstrap(y, w, 64, np.random.default_rng(2)).values
    }
    _check(failures, "9 formula (n=2 enumeration)", got <= possible and len(got) == 3)
    _finish(failures)


def test_criterion_10_determinism(tmp_path):
    failures = []
    runs = {
        "figure1a": ["figure1a", "--reps", "60", "--beta-grid=-1:1:5"],
        "figure1b": ["figure1b", "--reps", "60", "--beta-grid=-1:1:5"],
        "figure2-bootstrap": [
            "figure2", "--method", "bootstrap", "--reps", "60",
            "--datasets-per-beta", "2", "--b", "15", "--beta-grid=0:0.2:2",
        ],
        "figure2-subsample": [
            "figure2", "--method", "subsample", "--reps", "60",
            "--datasets-per-beta", "2", "--b", "15", "--beta-grid=0:0.2:2",
        ],
        "riskbound": ["riskbound", "--reps", "60", "--n-grid", "25,50"],
        "decay": ["decay", "--reps", "60", "--n-grid", "25,50"],
    }
    csv_names = {
        "figure1a": "mse_curve.csv",
        "figure1b": "ks_ratio.csv",
        "figure2-bootstrap": "resamp_error_bootstrap.csv",
        "figure2-subsample": "resamp_error_subsample.csv",
        "riskbound": "risk_bound.csv",
        "decay": "weight_decay.csv",
    }
    for key, args in runs.items():
        out1 = tmp_path / f"{key}-1"
        out2 = tmp_path / f"{key}-2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        same = (out1 / csv_names[key]).read_bytes() == (out2 / csv_names[key]).read_bytes()
        _check(failures, f"10 repeat-run bytes ({key})", same)
    for key in ("figure1a", "figure2-bootstrap"):
        out_w1 = tmp_path / f"{key}-w1"
        out_w8 = tmp_path / f"{key}-w8"
        assert main(runs[key] + ["--workers", "1", "--out", str(out_w1)]) == 0
        assert main(runs[key] + ["--workers", "8", "--out", str(out_w8)]) == 0
        same = (out_w1 / csv_names[key]).read_bytes() == (out_w8 / csv_names[key]).read_bytes()
        _check(failures, f"10 workers 1 vs 8 bytes ({key})", same)
    _finish(failures)
