import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelavg.experiments
from modelavg.errors import CollinearDesign, ZeroColumn
from modelavg.estimators import Pipeline
from modelavg.experiments import (
    Scenario,
    _ks_arrays,
    _grid,
    batch_estimates,
    draw_dataset,
    ks_ratio_curve,
    make_scenario,
    mc_estimator_draws,
    mse_curve,
    resampling_error_curve,
    risk_bound_sweep,
    stream,
    weight_decay_sweep,
)
from modelavg.model import (
    Dataset,
    DesignMatrix,
    TrueParams,
    compute_design_stats,
)
from modelavg.resampling import ResampleIndices, ResamplePlan, resampled_estimates
from modelavg.weights import PretestConfig, default_tuning


def _integer_scenario(beta=0.0, sigma=0.0, n=8, reps=40, seed=5):
    design = DesignMatrix(np.ones(n), np.arange(float(n)))
    return Scenario(
        design=design,
        params=TrueParams(alpha=2.0, beta=beta, sigma=sigma),
        pretest=PretestConfig(),
        adaptive=default_tuning(n),
        reps=reps,
        seed=seed,
    )


def _uniform_scenario(beta=0.0, sigma=1.0, n=50, reps=5000, seed=101, c=None):
    return make_scenario(n=n, seed=seed, reps=reps, alpha=1.0, beta=beta, sigma=sigma, c=c)


# ---------------------------------------------------------------------------
# two-sample KS


def test_ks_identical_samples():
    s = np.array([0.3, -1.0, 2.0])
    assert _ks_arrays(s, s) == 0.0


def test_ks_disjoint_supports():
    assert _ks_arrays(np.array([0.0, 1.0]), np.array([10.0, 11.0])) == 1.0


def test_ks_interleaved_half():
    assert _ks_arrays(np.array([1.0, 2.0]), np.array([1.5, 2.5])) == 0.5


def _ks_brute_force(x, y):
    # Double loop over every sample point, evaluating both ECDFs directly.
    best = 0.0
    for t in list(x) + list(y):
        fx = sum(1 for v in x if v <= t) / len(x)
        fy = sum(1 for v in y if v <= t) / len(y)
        best = max(best, abs(fx - fy))
    return best


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    y=st.lists(st.floats(-50, 50), min_size=1, max_size=40),
)
def test_ks_matches_brute_force_and_is_symmetric(x, y):
    a, b = np.array(x), np.array(y)
    d = _ks_arrays(a, b)
    assert 0.0 <= d <= 1.0
    assert d == _ks_arrays(b, a)
    assert d == pytest.approx(_ks_brute_force(x, y), abs=1e-12)


def _ks_merged_grid(x, y):
    # Dense oracle: both right-continuous ECDFs on the sorted union grid.
    xs, ys = np.sort(x), np.sort(y)
    grid = np.sort(np.concatenate([xs, ys]))
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.max(np.abs(fx - fy)))


_tied = st.integers(-4, 4).map(float)
_spread = st.floats(-50, 50)


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(st.lists(_tied, min_size=1, max_size=60), st.lists(_spread, min_size=1, max_size=60)),
    y=st.one_of(st.lists(_tied, min_size=1, max_size=7), st.lists(_spread, min_size=1, max_size=300)),
)
def test_ks_equals_merged_grid_oracle_exactly(x, y):
    # Evaluating only at the smaller sample's points must give the very same
    # float as the merged grid, for either argument order and with ties.
    x, y = np.array(x), np.array(y)
    expected = _ks_merged_grid(x, y)
    assert _ks_arrays(x, y) == expected
    assert _ks_arrays(y, x) == expected


def test_ks_brute_force_oracle_larger_samples(rng):
    for _ in range(10):
        x = rng.normal(size=int(rng.integers(5, 200)))
        y = rng.normal(0.3, 1.2, size=int(rng.integers(5, 200)))
        d = _ks_arrays(x, y)
        assert d == pytest.approx(_ks_brute_force(x, y), abs=1e-12)


# ---------------------------------------------------------------------------
# Monte Carlo sampling distributions


def test_batch_matches_scalar_pipeline(rng):
    scenario = _uniform_scenario(beta=0.3, reps=1, n=20, seed=33)
    stats = compute_design_stats(scenario.design)
    names = ("r", "u", "ms", "bma_exact", "bma_bic", "ama")
    z = rng.standard_normal((25, 20))
    noise = z.copy()  # batch_estimates overwrites z with the responses
    pipeline = scenario.pipeline(names)
    batch = batch_estimates(scenario.design, stats, scenario.params, z, pipeline)[0]
    for row in range(25):
        y = (
            scenario.params.alpha * scenario.design.x1
            + scenario.params.beta * scenario.design.x2
            + noise[row]
        )
        est, _ = scenario.pipeline(names).fit(Dataset(scenario.design, y))
        for name in names:
            assert batch[name][row] == pytest.approx(est[name], rel=1e-11), name


def test_mc_noiseless_null_draws_exactly_zero():
    scenario = _integer_scenario(beta=0.0, sigma=0.0)
    names = ("r", "u", "ms", "bma_exact", "bma_bic", "ama")
    draws = mc_estimator_draws(scenario, names)[0]
    for name in names:
        centered = np.sqrt(scenario.design.n) * (draws[name] - scenario.params.alpha)
        assert np.all(centered == 0.0), name


def test_mc_unrestricted_variance_matches_closed_form():
    scenario = _uniform_scenario(beta=0.4, reps=5000, seed=7)
    stats = compute_design_stats(scenario.design)
    draws = mc_estimator_draws(scenario, ("u",))[0]["u"]
    centered = np.sqrt(scenario.design.n) * (draws - scenario.params.alpha)
    expected = scenario.design.n * stats.s22 / stats.det  # n * Var(alpha_u)
    assert centered.var(ddof=1) == pytest.approx(expected, rel=0.05)


def test_mc_restricted_unbiased_at_null():
    scenario = _uniform_scenario(beta=0.0, reps=5000, seed=8)
    stats = compute_design_stats(scenario.design)
    draws = mc_estimator_draws(scenario, ("r",))[0]["r"]
    centered = np.sqrt(scenario.design.n) * (draws - scenario.params.alpha)
    se = np.sqrt(scenario.design.n / stats.s11 / scenario.reps)  # sd of the mean
    assert abs(centered.mean()) < 3 * se * np.sqrt(scenario.design.n)


def test_mc_determinism_and_common_random_numbers():
    scenario = _uniform_scenario(beta=0.2, reps=200, seed=9)
    d1 = mc_estimator_draws(scenario, ("u", "ms"))[0]
    d2 = mc_estimator_draws(scenario, ("u", "ms"))[0]
    assert np.array_equal(d1["u"], d2["u"])
    assert np.array_equal(d1["ms"], d2["ms"])
    # Same replications underlie every estimator: where selection picks U,
    # the MS draw equals the U draw bitwise.
    agree = d1["ms"] == d1["u"]
    assert agree.any()


# ---------------------------------------------------------------------------
# curves


def test_mse_curve_noiseless_zero():
    scenario = _integer_scenario(beta=0.0, sigma=0.0)
    rows = mse_curve([0.0], scenario)
    row = rows[0]
    for col in ("mse_ms", "mse_bma_bic", "mse_ama", "mse_u"):
        assert row[col] == 0.0
    assert row["reps"] == scenario.reps
    assert row["seed"] == scenario.seed


def test_mse_curve_c0_equals_u_exactly():
    scenario = _uniform_scenario(beta=0.15, reps=400, seed=12, c=0.0)
    rows = mse_curve([0.15], scenario)
    assert rows[0]["mse_ms"] == rows[0]["mse_u"]


def test_mse_curve_null_ranking_matches_variance_oracle():
    # At beta = 0 the restricted estimator's variance A = sigma^2/s11 is below
    # the unrestricted A + B; the Monte Carlo estimates must reproduce both.
    scenario = _uniform_scenario(beta=0.0, reps=5000, seed=14)
    stats = compute_design_stats(scenario.design)
    draws = mc_estimator_draws(scenario, ("r", "u"))[0]
    var_r = np.var(draws["r"] - 1.0, ddof=1)
    var_u = np.var(draws["u"] - 1.0, ddof=1)
    a = 1.0 / stats.s11
    b = stats.s12 ** 2 / (stats.s11 * stats.det)
    assert var_r == pytest.approx(a, rel=0.1)
    assert var_u == pytest.approx(a + b, rel=0.1)
    assert var_r < var_u


def test_ks_ratio_curve_degenerate_maps_to_50():
    scenario = _integer_scenario(beta=0.0, sigma=0.0)
    rows = ks_ratio_curve([0.0], scenario)
    assert rows[0]["ratio_ms"] == 50.0
    assert rows[0]["ratio_bma_bic"] == 50.0
    assert rows[0]["ratio_ama"] == 50.0


def test_ks_ratio_stays_within_0_100_when_ks_u_is_zero():
    from modelavg.experiments import _ks_ratio

    assert _ks_ratio(7 / 5000, 0.0) == 100.0
    assert all(_ks_ratio(k / 5000, 0.0) == 100.0 for k in range(1, 5001))


def test_ks_ratio_curve_columns():
    scenario = _uniform_scenario(reps=100, seed=3)
    rows = ks_ratio_curve([0.0, 0.5], scenario)
    expected = [
        "beta", "ratio_ms", "ratio_bma_bic", "ratio_ama",
        "ks_ms_r", "ks_ms_u", "ks_bma_r", "ks_bma_u", "ks_ama_r", "ks_ama_u",
        "reps", "seed",
    ]
    assert list(rows[0].keys()) == expected
    for row in rows:
        for col in expected:
            assert np.isfinite(row[col])


def test_ks_ratio_far_beta_near_100():
    scenario = _uniform_scenario(reps=2000, seed=15)
    rows = ks_ratio_curve([1.0], scenario)
    for col in ("ratio_ms", "ratio_bma_bic", "ratio_ama"):
        assert rows[0][col] > 85.0


def test_resampling_error_noiseless_zero():
    scenario = _integer_scenario(beta=0.0, sigma=0.0, reps=30)
    rows = resampling_error_curve([0.0], scenario, ResamplePlan(b=20), datasets_per_beta=3)
    assert rows[0]["err_ms"] == 0.0
    assert rows[0]["err_bma_bic"] == 0.0
    assert rows[0]["err_ama"] == 0.0
    assert rows[0]["excluded"] == 0
    assert rows[0]["datasets"] == 3
    assert rows[0]["b"] == 20


def test_resampling_error_subsample_and_pooled_modes():
    scenario = _uniform_scenario(reps=300, seed=44, n=20)
    rows_b = resampling_error_curve([0.0], scenario, ResamplePlan(b=30, m=8), datasets_per_beta=2)
    assert rows_b[0]["err_ama"] > 0.0
    rows_p = resampling_error_curve(
        [0.0], scenario, ResamplePlan(b=30), datasets_per_beta=2, mode="pooled"
    )
    assert np.isfinite(rows_p[0]["err_ms"])
    with pytest.raises(ValueError):
        resampling_error_curve([0.0], scenario, ResamplePlan(b=5, m=99), datasets_per_beta=1)


def _generic_engine(ds, pipeline, plan, seed):
    """Per-row reference for the resampling engine, one refit per replicate.

    Takes the ResampleIndices block of ``seed``, redraws singular rows in
    ascending order, refits the dataset of each row's (x, y) rows through
    ``pipeline.fit`` and returns sqrt(size) * (theta_star - theta_hat) per name.
    """
    indices = ResampleIndices(np.random.default_rng(seed), ds.n, plan)
    originals, _ = pipeline.fit(ds)
    x1, x2, y = ds.design.x1, ds.design.x2, ds.y
    out = {name: [] for name in pipeline.names}
    for row in indices.block:
        while True:
            try:
                star, _ = pipeline.fit(Dataset(DesignMatrix(x1[row], x2[row]), y[row]))
                break
            except (CollinearDesign, ZeroColumn):
                row = indices.redraw()
        for name in pipeline.names:
            out[name].append(np.sqrt(indices.size) * (star[name] - originals[name]))
    return {name: np.array(values) for name, values in out.items()}


def _engine(ds, pipeline, plan, seed):
    return resampled_estimates(ds, pipeline, plan, np.random.default_rng(seed))


def _assert_engines_agree(ds, scenario, sigma, prior_scale=1.0, prior_p_r=0.5):
    names = ("r", "u", "ms", "bma_bic", "ama", "bma_exact")
    pipeline = Pipeline(names, sigma, scenario.pretest, scenario.adaptive, prior_scale, prior_p_r)
    for m in (None, 5, 12):
        plan = ResamplePlan(b=40, m=m)
        loop = _generic_engine(ds, pipeline, plan, 17)
        fast = _engine(ds, pipeline, plan, 17)
        for name in names:
            np.testing.assert_allclose(
                fast[name], loop[name], rtol=1e-9, atol=1e-9, err_msg=f"{name} m={m}",
            )


def _tiny_scenario():
    # n = 3 with x1 constant: a bootstrap row is singular exactly when it
    # repeats one row three times.
    return Scenario(
        design=DesignMatrix(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0])),
        params=TrueParams(alpha=1.0, beta=0.3, sigma=1.0),
        pretest=PretestConfig(),
        adaptive=default_tuning(3),
        reps=5,
        seed=1,
    )


def test_fast_resampling_engine_matches_generic_engine():
    # The vectorized engine must reproduce the per-row refits: both take one
    # (b, size) index block from the same generator and redraw singular rows
    # in ascending order from one spawned generator, under the same budget,
    # so they refit the same resamples.
    scenario = _uniform_scenario(n=12, reps=10, seed=91)
    ds = draw_dataset(scenario)
    _assert_engines_agree(ds, scenario, 1.0)
    # A non-default coefficient prior must reach the exact-posterior weights.
    _assert_engines_agree(ds, scenario, 1.0, prior_scale=2.0, prior_p_r=0.3)
    # Redraw parity on a tiny design where duplicated rows are collinear.
    tiny = _tiny_scenario()
    ds3 = draw_dataset(tiny)
    pipeline3 = Pipeline(("u",), 1.0, tiny.pretest, tiny.adaptive)
    plan3 = ResamplePlan(b=60)
    np.testing.assert_allclose(
        _engine(ds3, pipeline3, plan3, 4)["u"],
        _generic_engine(ds3, pipeline3, plan3, 4)["u"],
        rtol=1e-9, atol=1e-9,
    )


def test_full_size_subsample_reproduces_dataset_in_both_engines():
    # m = n: every sorted index row is 0..n-1, so each replicate refits the
    # original dataset bit-for-bit and every centered replicate is exactly 0.
    names = ("r", "u", "ms", "bma_bic", "ama", "bma_exact")
    for n, sigma in ((12, 1.0), (50, 1.0), (9, 0.0)):
        scenario = _uniform_scenario(n=n, reps=10, seed=91, sigma=sigma)
        ds = draw_dataset(scenario)
        pipeline = Pipeline(names, sigma, scenario.pretest, scenario.adaptive)
        plan = ResamplePlan(b=30, m=n)
        loop = _generic_engine(ds, pipeline, plan, 1)
        fast = _engine(ds, pipeline, plan, 1)
        for name in names:
            assert np.all(loop[name] == 0.0), name
            assert np.all(fast[name] == 0.0), name


def test_singular_redraw_leaves_other_rows_on_their_block_row():
    # Each singular row is replaced from one generator spawned from the
    # caller's, in ascending row order; every other replicate is the refit of
    # its own block row.
    tiny = _tiny_scenario()
    ds = draw_dataset(tiny)
    pipeline = Pipeline(("u",), 1.0, tiny.pretest, tiny.adaptive)
    plan = ResamplePlan(b=60)
    block = ResampleIndices(np.random.default_rng(4), 3, plan).block
    singular = np.array([len(set(row)) == 1 for row in block])
    assert 0 < singular.sum() < plan.b

    redraw_rng = np.random.default_rng(4).spawn(1)[0]
    expected_rows = []
    for row in block:
        while len(set(row)) == 1:
            row = redraw_rng.integers(0, 3, size=(1, 3))[0]
        expected_rows.append(row)
    x1, x2, y = ds.design.x1, ds.design.x2, ds.y
    expected = np.array([
        pipeline.fit(Dataset(DesignMatrix(x1[row], x2[row]), y[row]))[0]["u"]
        for row in expected_rows
    ])
    assert not np.array_equal(np.array(expected_rows)[singular], block[singular])

    scale = np.sqrt(3.0)
    loop = _generic_engine(ds, pipeline, plan, 4)
    fast = _engine(ds, pipeline, plan, 4)
    original = pipeline.fit(ds)[0]["u"]
    assert np.array_equal(loop["u"], scale * (expected - original))
    np.testing.assert_allclose(fast["u"], scale * (expected - original), rtol=1e-12, atol=1e-12)


def test_fast_resampling_engine_matches_generic_engine_at_sigma_zero():
    # Both engines take the sigma -> 0 limit, on noisy and on noiseless data.
    noisy = _uniform_scenario(n=12, reps=10, seed=91)
    _assert_engines_agree(draw_dataset(noisy), noisy, 0.0)
    null = _uniform_scenario(n=12, reps=10, seed=92, sigma=0.0)
    _assert_engines_agree(draw_dataset(null), null, 0.0)


def test_resampling_error_counts_excluded_datasets():
    # n = 2 with a zero redraw budget: roughly half the datasets lose their
    # first draw to a duplicated row and are excluded from the mean.
    design = DesignMatrix(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    scenario = Scenario(
        design=design,
        params=TrueParams(alpha=1.0, beta=0.0, sigma=1.0),
        pretest=PretestConfig(),
        adaptive=default_tuning(2),
        reps=50,
        seed=2,
    )
    rows = resampling_error_curve(
        [0.0], scenario, ResamplePlan(b=1, max_redraws=0), datasets_per_beta=12
    )
    row = rows[0]
    assert row["excluded"] > 0
    assert row["datasets"] == 12 - row["excluded"]
    assert np.isfinite(row["err_ms"])


def test_curves_deterministic_across_workers():
    scenario = _uniform_scenario(reps=300, seed=77)
    grid = [-0.5, 0.0, 0.5]
    base = mse_curve(grid, scenario, workers=1)
    par = mse_curve(grid, scenario, workers=4)
    assert base == par
    r1 = resampling_error_curve(grid, scenario, ResamplePlan(b=10), datasets_per_beta=2)
    r2 = resampling_error_curve(grid, scenario, ResamplePlan(b=10), datasets_per_beta=2, workers=3)
    assert r1 == r2
    # The n sweeps hand the pool their largest n first; rows keep the given order.
    n_scenario = make_scenario(n=50, seed=77, reps=200, beta=0.2)
    n_grid = (100, 25, 200, 50)
    for sweep in (risk_bound_sweep, weight_decay_sweep):
        rows = sweep(n_grid, n_scenario, workers=1)
        assert sweep(n_grid, n_scenario, workers=3) == rows
        assert [row["n"] for row in rows] == list(n_grid)


def _cells(n_values):
    return [({"k": k}, _uniform_scenario(n=n, reps=1)) for k, n in enumerate(n_values)]


def test_pool_starts_the_costliest_items_first():
    started, lock = [], threading.Lock()

    def row(i, cell):
        with lock:
            started.append(i)
        time.sleep(0.05)  # both workers are busy before a third item is taken
        return {"i": i}

    rows = _grid(_cells([25, 100, 50, 200]), workers=2, row=row)
    assert rows == [{"k": i, "i": i, "seed": 101} for i in range(4)]
    assert set(started[:2]) == {3, 1}


def test_a_failed_row_cancels_the_rows_not_yet_started():
    # Row 0 fails while the others block on an event that is set only later.
    # The worker that ran row 0 may take one queued row before the failure is
    # seen; no row after that may start.
    started, lock, release = [], threading.Lock(), threading.Event()

    def row(i, cell):
        with lock:
            started.append(i)
        if i == 0:
            raise RuntimeError("row 0 failed")
        release.wait(timeout=10)
        return {}

    timer = threading.Timer(0.5, release.set)
    timer.start()
    try:
        with pytest.raises(RuntimeError, match="row 0 failed"):
            _grid(_cells([50] * 12), workers=2, row=row)
    finally:
        timer.cancel()
        release.set()
    assert {0, 1} <= set(started) <= {0, 1, 2}


def _peak_blocks(fn, reps, n):
    """Peak traced allocation during ``fn()``, in (reps, n) float64 blocks."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (reps * n * 8)


@pytest.mark.parametrize("path", ["mc_estimator_draws", "risk_bound_sweep", "weight_decay_sweep"])
def test_monte_carlo_paths_hold_one_noise_block(path):
    # The responses are formed in the noise block's own buffer, so each grid
    # point needs one (reps, n) array and nothing else of that size.
    reps, n = 2000, 400
    scenario = _uniform_scenario(beta=0.3, n=n, reps=reps, seed=12)
    n_scenario = make_scenario(n=n, seed=12, reps=reps, beta=0.3)
    names = ("r", "u", "ms", "bma_exact", "bma_bic", "ama")
    run = {
        "mc_estimator_draws": lambda: mc_estimator_draws(scenario, names),
        "risk_bound_sweep": lambda: risk_bound_sweep([n], n_scenario, workers=1),
        "weight_decay_sweep": lambda: weight_decay_sweep([n], n_scenario, workers=1),
    }[path]
    assert _peak_blocks(run, reps, n) <= 1.25


def test_mse_curve_even_for_symmetrized_design():
    # Center the uniform column so <x1, x2> ~ 0; the MSE curves are then even
    # in beta up to Monte Carlo error (3 standard errors).
    base = make_scenario(n=50, seed=6, reps=4000)
    x2c = base.design.x2 - base.design.x2.mean()
    design = DesignMatrix(base.design.x1, x2c)
    scenario = Scenario(
        design=design,
        params=TrueParams(alpha=1.0, beta=0.0, sigma=1.0),
        pretest=base.pretest,
        adaptive=base.adaptive,
        reps=4000,
        seed=6,
    )
    grid = [-0.6, -0.3, 0.3, 0.6]
    rows = {row["beta"]: row for row in mse_curve(grid, scenario)}

    def mc_se(beta, name):
        cell_index = grid.index(beta)
        draws = mc_estimator_draws(
            Scenario(
                design=design,
                params=TrueParams(alpha=1.0, beta=beta, sigma=1.0),
                pretest=base.pretest,
                adaptive=base.adaptive,
                reps=4000,
                seed=6,
            ),
            (name,),
            grid_index=cell_index,
        )[0][name]
        sq = (draws - 1.0) ** 2
        return float(np.std(sq, ddof=1) / np.sqrt(sq.size))

    for beta in (0.3, 0.6):
        for name in ("ms", "bma_bic", "ama", "u"):
            gap = abs(rows[beta][f"mse_{name}"] - rows[-beta][f"mse_{name}"])
            tol = 3.0 * (mc_se(beta, name) + mc_se(-beta, name))
            assert gap <= tol, (beta, name, gap, tol)


# ---------------------------------------------------------------------------
# sweeps


def test_risk_bound_sweep_null_envelope():
    # At beta = 0 the posterior weight drifts to R, whose normalized risk is
    # sigma^2 * n / s11 = 1 for intercept designs; every point must stay inside
    # a generous [R-risk, U-risk] envelope net of 3 MC standard errors.
    n_grid = [25, 50, 100, 200]
    rows = risk_bound_sweep(n_grid, make_scenario(n=50, seed=31, reps=3000, beta=0.0))
    for i, row in enumerate(rows):
        from modelavg.model import make_uniform_design

        design = make_uniform_design(row["n"], stream(31, 0, i))
        stats = compute_design_stats(design)
        upper = 1.5 * row["n"] * stats.s22 / stats.det
        assert row["n_risk"] - 3 * row["mc_se"] < upper
        assert row["n_risk"] + 3 * row["mc_se"] > 0.5
        assert row["mc_se"] > 0.0
    peak = max(rows, key=lambda r: r["n_risk"])
    print(f"\n[diagnostic] null-risk peak at n = {peak['n']} (n_risk = {peak['n_risk']:.3f})")


def test_risk_bound_sweep_rows_shape():
    rows = risk_bound_sweep([25, 50], make_scenario(n=50, seed=1, reps=500, beta=0.5))
    assert [r["n"] for r in rows] == [25, 50]
    assert list(rows[0].keys()) == ["n", "n_risk", "mc_se", "reps", "seed"]


def test_weight_decay_sweep_directions():
    rows_null = weight_decay_sweep([50, 800], make_scenario(n=50, seed=21, reps=3000, beta=0.0))
    # beta = 0: the weight hovers near 1/2 and sqrt(n) * p grows with n.
    assert 0.40 < rows_null[1]["mean_p_r"] <= 0.5
    assert rows_null[1]["mean_sqrtn_p_r"] > 2.0 * rows_null[0]["mean_sqrtn_p_r"]
    rows_alt = weight_decay_sweep([50, 800], make_scenario(n=50, seed=21, reps=3000, beta=0.5))
    # beta != 0: sqrt(n) * p collapses.
    assert rows_alt[1]["mean_sqrtn_p_r"] < 0.5 * rows_alt[0]["mean_sqrtn_p_r"]
    assert list(rows_alt[0].keys()) == ["n", "mean_p_r", "mean_sqrtn_p_r", "reps", "seed"]


def test_sweeps_draw_like_the_beta_curves():
    # Grid point 0 of an n sweep is the make_scenario cell of that n: the same
    # design, truth noise and settings, so the same draws to the last bit.
    scenario = make_scenario(n=50, seed=17, reps=300, beta=0.3)
    risk = risk_bound_sweep([50], scenario)[0]
    draws = mc_estimator_draws(scenario, ("bma_exact",))[0]["bma_exact"]
    assert risk["n_risk"] == float(50 * np.mean((draws - scenario.params.alpha) ** 2))
    decay = weight_decay_sweep([50], scenario)[0]
    p_r = mc_estimator_draws(scenario, ("ama",))[1]["ama"]
    assert decay["mean_p_r"] == float(np.mean(p_r))


def test_draw_dataset_deterministic():
    scenario = _uniform_scenario(reps=10, seed=5)
    d1 = draw_dataset(scenario)
    d2 = draw_dataset(scenario)
    assert np.array_equal(d1.y, d2.y)
    d3 = draw_dataset(scenario, dataset_index=1)
    assert not np.array_equal(d1.y, d3.y)


def test_empty_grids_rejected():
    scenario = _uniform_scenario(reps=10)
    calls = (
        lambda: mse_curve([], scenario),
        lambda: ks_ratio_curve([], scenario),
        lambda: resampling_error_curve([], scenario, ResamplePlan(b=5), datasets_per_beta=1),
        lambda: risk_bound_sweep([], scenario),
        lambda: weight_decay_sweep([], scenario),
        # reps = 0 would average over no replicates and report nan.
        lambda: risk_bound_sweep([25], replace(scenario, reps=0)),
        lambda: weight_decay_sweep([25], replace(scenario, reps=0)),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_subsample_size_one_is_refused_before_any_truth_sample(monkeypatch):
    # Every one-row subsample is singular, and a subsample cannot hold more
    # than n rows, so m = 1 and m = n + 1 must fail up front rather than after
    # the grid points' truth samples were drawn. m = 1 fails when the plan is
    # built.
    def no_truth_sample(*args, **kwargs):
        raise AssertionError("truth sample drawn before m was checked")

    monkeypatch.setattr(modelavg.experiments, "mc_estimator_draws", no_truth_sample)
    scenario = _uniform_scenario(reps=10, n=20)
    for m in (1, 21):
        with pytest.raises(ValueError, match=f"m={m} "):
            resampling_error_curve(
                [0.0, 0.3, 0.6], scenario, ResamplePlan(b=5, m=m), datasets_per_beta=1,
                workers=3,
            )
