import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelavg.estimators import P_R_RULES, KernelStats, Pipeline
from modelavg.experiments import _draw_products, make_scenario, mc_estimator_draws
from modelavg.model import (
    Dataset,
    DesignMatrix,
    TrueParams,
    compute_design_stats,
    load_reference_design,
    response_stats,
    rss_gap,
    solve_normal_equations,
)
from modelavg.resampling import ResamplePlan, resampled_estimates
from modelavg.weights import (
    AdaptiveConfig,
    ModelWeights,
    PretestConfig,
    adaptive_p_r,
    adaptive_weights,
    bic_p_r,
    default_tuning,
    exact_posterior_p_r,
    pretest_threshold,
    stable_sigmoid,
)

from conftest import dense_posterior_oracle, random_dataset, stable_sigmoid_reference


# ---------------------------------------------------------------------------
# pretest


def _pretest_keeps_r(beta_u, sigma_beta, cfg, n=2):
    """Whether the kernel's ms estimate is alpha_r for this slope and slope sd,
    on n rows.

    With s11 = 1, s22 = 2, s12 = 1 (so det = 1), sigma_beta equals sigma and
    beta_u = p2 - p1 exactly for these inputs; alpha_r = p1 and
    alpha_u = p1 - beta_u differ, so ms shows which model the pretest kept.
    """
    p1 = 0.25
    est, _ = Pipeline(("r", "u", "ms"), sigma_beta, cfg).kernel(n, 1.0, 2.0, 1.0, p1, p1 + beta_u)
    assert est["r"] != est["u"]
    return est["ms"] == est["r"]


def test_pretest_zero_slope_selects_r():
    # The kernel keeps U only where |beta_u| exceeds the threshold; |0| never does.
    for c in (1e-9, 1.0, 1e6):
        for form in ("t", "scaled"):
            assert not abs(0.0) > pretest_threshold(1.0, PretestConfig(c=c, form=form), 50)


def test_pretest_worked_ratio():
    # |0.5 / 0.70711| = 0.70711 <= sqrt(2), so the restricted model is kept.
    cfg = PretestConfig(c=math.sqrt(2.0))
    assert _pretest_keeps_r(0.5, 0.70711, cfg)
    assert not _pretest_keeps_r(1.5, 0.70711, cfg)


def test_pretest_tie_goes_to_r():
    cfg = PretestConfig(c=1.5)
    assert _pretest_keeps_r(1.5, 1.0, cfg)
    assert not _pretest_keeps_r(np.nextafter(1.5, 2.0), 1.0, cfg)


def test_pretest_matches_penalized_rss_comparison(rng):
    # With c = sqrt(log n) the threshold rule reproduces the penalized-RSS
    # comparison RSS_R + log n vs RSS_U + 2 log n (sigma = 1).
    for _ in range(200):
        ds = random_dataset(rng)
        n = ds.n
        stats = compute_design_stats(ds.design)
        cfg = PretestConfig(c=math.sqrt(math.log(n)))
        est, _ = Pipeline(("r", "u", "ms"), 1.0, cfg).fit(ds)
        assert est["r"] != est["u"]
        keeps_u = est["ms"] == est["u"]
        p1, p2 = response_stats(ds)
        beta_u = solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)[1]
        rss_r = float(np.sum((ds.y - est["r"] * ds.design.x1) ** 2))
        rss_u = float(np.sum((ds.y - est["u"] * ds.design.x1 - beta_u * ds.design.x2) ** 2))
        assert keeps_u == (rss_r + math.log(n) > rss_u + 2 * math.log(n))


def test_pretest_scaled_form_needs_n():
    # Statistic |beta_u| / (sigma_beta * sqrt(n)), n the rows of the fit the
    # kernel is given: far harder to exceed at n = 100.
    cfg = PretestConfig(c=1.0, form="scaled")
    assert _pretest_keeps_r(5.0, 1.0, cfg, n=100)
    assert not _pretest_keeps_r(11.0, 1.0, cfg, n=100)
    assert pretest_threshold(2.0, cfg, 100) == 20.0
    assert pretest_threshold(2.0, PretestConfig(c=1.0), 100) == 2.0


def test_scaled_pretest_reads_the_kernels_own_n():
    # beta_u = 6 and sigma_beta = 1: a size-20 fit (a subsample of m = 20)
    # is judged against sqrt(20) = 4.47 and takes U, a size-50 fit against
    # sqrt(50) = 7.07 and keeps R, from one config.
    pipeline = Pipeline(("ms", "r", "u"), 1.0, PretestConfig(c=1, form="scaled"))
    for n, keeps_r in ((20, False), (50, True)):
        est, p_r = pipeline.kernel(n, 1.0, 2.0, 1.0, 0.25, 6.25)
        assert est["r"] != est["u"]
        assert est["ms"] == (est["r"] if keeps_r else est["u"])
        assert bool(p_r["ms"]) is keeps_r


# ---------------------------------------------------------------------------
# exact posterior weights


def _bma_exact_p_r(ds, sigma, prior_scale=1.0, prior_p_r=0.5):
    """The weight on R behind a bma_exact pipeline's fit of ``ds``."""
    pipeline = Pipeline(("bma_exact",), sigma, prior_scale=prior_scale, prior_p_r=prior_p_r)
    return pipeline.fit(ds)[1]["bma_exact"]


def test_posterior_worked_example():
    design = DesignMatrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ds = Dataset(design, np.array([0.0, 0.0]))
    p_r = _bma_exact_p_r(ds, 1.0)
    expected = (2.0 ** -0.5) / (2.0 ** -0.5 + 0.5)
    assert p_r == pytest.approx(expected, rel=1e-12)
    assert p_r == pytest.approx(0.585786, abs=1e-6)


def test_posterior_even_in_y(rng):
    for _ in range(25):
        ds = random_dataset(rng)
        flipped = Dataset(ds.design, -ds.y)
        assert _bma_exact_p_r(ds, 1.0) == pytest.approx(_bma_exact_p_r(flipped, 1.0), rel=1e-13)


def test_posterior_matches_dense_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 21))
        ds = random_dataset(rng, n=n)
        sigma = float(rng.uniform(0.3, 2.5))
        oracle = dense_posterior_oracle(ds, sigma)
        assert abs(_bma_exact_p_r(ds, sigma) - oracle) < 1e-8


def test_posterior_matches_dense_oracle_nondefault_priors(rng):
    for _ in range(50):
        n = int(rng.integers(2, 21))
        ds = random_dataset(rng, n=n)
        prior_scale = float(rng.uniform(0.5, 3.0))
        prior_p_r = float(rng.uniform(0.1, 0.9))
        p_r = _bma_exact_p_r(ds, 1.0, prior_scale=prior_scale, prior_p_r=prior_p_r)
        oracle = dense_posterior_oracle(ds, 1.0, prior_scale, prior_p_r)
        assert abs(p_r - oracle) < 1e-8


def test_posterior_defined_for_collinear_design():
    design = DesignMatrix(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    ds = Dataset(design, np.array([0.5, -0.25]))
    x1, x2, y = design.x1, design.x2, ds.y
    s11, s22, s12 = x1 @ x1, x2 @ x2, x1 @ x2
    # det = 0 and beta_u is undefined; at sigma > 0 the weight reads neither.
    stats = KernelStats(ds.n, s11, s22, s12, x1 @ y, x2 @ y, s11 * s22 - s12 * s12, math.nan)
    p_r = float(exact_posterior_p_r(stats, 1.0, 1.0, 0.5))
    assert 0.0 <= p_r <= 1.0
    oracle = dense_posterior_oracle(ds, 1.0)
    assert abs(p_r - oracle) < 1e-8


def test_posterior_sigma_zero_limit():
    design = DesignMatrix(np.ones(4), np.array([0.0, 1.0, 2.0, 3.0]))
    # Both models interpolate: weight collapses on the smaller model.
    ds_null = Dataset(design, 2.0 * design.x1)
    assert _bma_exact_p_r(ds_null, 0.0) == 1.0
    # Only the unrestricted model interpolates.
    ds_slope = Dataset(design, 2.0 * design.x1 + design.x2)
    assert _bma_exact_p_r(ds_slope, 0.0) == 0.0


def _y_y_rule(s11, s22, s12, p1, p2, yy):
    """bma_exact's sigma = 0 weight as defined on <y,y>: all weight on R where
    RSS_R - RSS_U lies within 1e-9 (1 + <y,y>), else all on U."""
    det = s11 * s22 - s12 * s12
    beta_u = solve_normal_equations(s11, s22, s12, det, p1, p2)[1]
    return np.where(rss_gap(beta_u, s11, det) <= 1e-9 * (1.0 + yy), 1.0, 0.0)


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_sigma_zero_posterior_weight_equals_the_rule_on_y_y(monkeypatch, scale):
    # The sigma = 0 tolerance reads the fitted sum of squares, which equals
    # <y,y> to round-off for a noiseless response: on the fit, Monte Carlo
    # and resampling paths the weights are those of the <y,y> rule.
    rule, calls = P_R_RULES["bma_exact"], []

    def spy(stats, pipe):  # keeps each kernel call's stats and weights
        calls.append((stats, rule(stats, pipe)))
        return calls[-1][1]

    monkeypatch.setitem(P_R_RULES, "bma_exact", spy)
    pipeline, weights = Pipeline(("bma_exact",), 0.0), set()
    for beta in (0.0, 1e-5, 0.2):
        # Seed 5050 at n = 50 freezes the shipped design.
        scenario = make_scenario(50, 5050, reps=7, alpha=scale, beta=scale * beta, sigma=0.0)
        design, params = scenario.design, scenario.params
        assert np.array_equal(design.x2, load_reference_design().x2)
        y = params.alpha * design.x1 + params.beta * design.x2
        ds = Dataset(design, y)
        stats = compute_design_stats(design)
        grams = (stats.s11, stats.s22, stats.s12)
        expected = _y_y_rule(*grams, *response_stats(ds), np.sum(y * y))
        assert pipeline.fit(ds)[1]["bma_exact"] == expected, beta
        rows = np.broadcast_to(y, (scenario.reps, design.n))
        mc = _y_y_rule(*grams, *_draw_products(scenario, 0), np.einsum("ij,ij->i", rows, rows))
        assert np.array_equal(mc_estimator_draws(scenario, ("bma_exact",))[1]["bma_exact"], mc)
        for plan in (ResamplePlan(40), ResamplePlan(40, m=20)):
            resampled_estimates([ds], pipeline, plan, [np.random.default_rng(8)])
            s, got = calls[-1]
            resampled = y[plan.indices(np.random.default_rng(8), design.n, plan.b)]
            expected_rows = _y_y_rule(*s[1:6], np.sum(resampled * resampled, axis=-1))
            assert np.array_equal(got, expected_rows), (beta, plan)
            weights.update(got)
    assert weights == ({1.0} if scale < 1.0 else {0.0, 1.0})


def test_posterior_extreme_responses_stay_in_unit_interval(rng):
    ds = random_dataset(rng, n=10)
    huge = Dataset(ds.design, 1e150 * ds.y)
    p_r = _bma_exact_p_r(huge, 1.0)
    assert 0.0 <= p_r <= 1.0
    assert math.isfinite(p_r)


# ---------------------------------------------------------------------------
# BIC weights


def _bic_weight(ds):
    """The kernel's bma_bic weight on R, from the inner products the pipeline uses."""
    stats = compute_design_stats(ds.design)
    p1, p2 = response_stats(ds)
    _, p_r = Pipeline(("bma_bic",), 1.0).kernel(ds.n, stats.s11, stats.s22, stats.s12, p1, p2)
    return ModelWeights(float(p_r["bma_bic"]))


def test_bic_noiseless_null_data():
    # RSS_R = RSS_U = 0 exactly (integer data), so q = sqrt(n) / (sqrt(n) + 1).
    n = 50
    design = DesignMatrix(np.ones(n), np.arange(1.0, n + 1.0))
    ds = Dataset(design, 2.0 * design.x1)
    w = _bic_weight(ds)
    expected = math.sqrt(n) / (math.sqrt(n) + 1.0)
    assert w.p_r == pytest.approx(expected, rel=1e-12)
    assert w.p_r == pytest.approx(0.8761, abs=2e-4)


def test_bic_equal_exponents_give_half():
    # Orthonormal design, y2 chosen so RSS_R - RSS_U = log n exactly.
    design = DesignMatrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ds = Dataset(design, np.array([0.7, math.sqrt(math.log(2.0))]))
    w = _bic_weight(ds)
    assert w.p_r == pytest.approx(0.5, abs=1e-12)


def test_bic_weights_overflow_safe():
    assert float(bic_p_r(1e6, 50)) == 0.0
    assert float(bic_p_r(-1e6, 50)) == 1.0


# ---------------------------------------------------------------------------
# adaptive weights


@pytest.mark.parametrize("key", ["a_n", "k_n"])
@pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
def test_adaptive_config_refuses_tuning_that_is_not_finite_and_positive(key, value):
    # a_n = inf used to pass and give the ama weight nan at beta_u = 0.
    with pytest.raises(ValueError, match=key):
        AdaptiveConfig(**{"a_n": 16.0, "k_n": 0.25, key: value})


def test_adaptive_zero_slope_is_exactly_half():
    cfg = AdaptiveConfig(a_n=16.0, k_n=0.25)
    assert adaptive_weights(0.0, cfg).p_r == 0.5


def test_adaptive_worked_value():
    cfg = AdaptiveConfig(a_n=16.0, k_n=0.25)
    w = adaptive_weights(0.5, cfg)
    xi1 = 1.0 / (1.0 + math.exp(2.0))
    xi2 = 1.0 / (1.0 + math.exp(6.0))
    assert xi1 == pytest.approx(0.11920, abs=1e-5)
    assert xi2 == pytest.approx(0.0024726, abs=1e-7)
    assert w.p_r == pytest.approx(0.5 * (xi1 + xi2), rel=1e-14)
    assert w.p_r == pytest.approx(0.060837, abs=1e-5)


@settings(max_examples=300, deadline=None)
@given(
    beta_u=st.floats(-1e6, 1e6, allow_nan=False),
    a_n=st.floats(0.01, 1e3),
    k_n=st.floats(1e-3, 10.0),
)
def test_adaptive_even_and_bounded(beta_u, a_n, k_n):
    p = float(adaptive_p_r(beta_u, a_n, k_n))
    p_neg = float(adaptive_p_r(-beta_u, a_n, k_n))
    assert p == p_neg
    assert 0.0 <= p <= 0.5


def test_adaptive_strictly_below_half_off_zero():
    # Strict inequality checked on a log-spaced grid of slopes large enough
    # that the logistic exponent does not underflow to zero.
    cfg = default_tuning(50)
    grid = np.logspace(-6, 6, 2000)
    vals = adaptive_p_r(grid, cfg.a_n, cfg.k_n)
    assert np.all(vals < 0.5)
    assert float(adaptive_p_r(0.0, cfg.a_n, cfg.k_n)) == 0.5


def test_adaptive_huge_inputs_no_overflow():
    cfg = default_tuning(50)
    for b in (1e300, -1e300, 1e-300, 0.0):
        w = adaptive_weights(b, cfg)
        assert math.isfinite(w.p_r)
        assert 0.0 <= w.p_r <= 0.5
        assert w.p_r + w.p_u == 1.0
    # Elementwise, like adaptive_p_r: an array of slopes gives an array of weights.
    beta_u = np.array([1e300, -1e300, 1e-300, 0.0, -0.3, 0.02])
    w = adaptive_weights(beta_u, cfg)
    assert np.array_equal(w.p_r, adaptive_p_r(beta_u, cfg.a_n, cfg.k_n))
    assert np.array_equal(w.p_u, 1.0 - w.p_r)


def test_stable_sigmoid_equals_the_masked_reference(rng):
    # One exp of -|t| and one where give the floats of the two masked
    # assignments, on the edge values and on arrays of any shape.
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, 1e308, -1e308])
    inputs = [edges, rng.normal(0.0, 30.0, 500), rng.normal(size=(4, 7)), np.float64(-2.5), 3.0, -0.0]
    for t in inputs:
        got, expected = stable_sigmoid(t), stable_sigmoid_reference(t)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected, equal_nan=True)


def test_adaptive_monotone_on_grid():
    for cfg in (AdaptiveConfig(16.0, 0.25), default_tuning(50), default_tuning(800)):
        grid = np.concatenate([[0.0], np.logspace(-8, 4, 5000)])
        vals = adaptive_p_r(grid, cfg.a_n, cfg.k_n)
        assert np.all(np.diff(vals) <= 1e-12)


def test_default_tuning_values():
    cfg = default_tuning(50)
    assert cfg.a_n == pytest.approx(15.3039, abs=1e-4)
    assert cfg.k_n == pytest.approx(math.sqrt(math.log(50) / 50), rel=1e-14)
    # a_n^{-1} log n = 1 / log n decreases in n.
    ratios = [math.log(n) / default_tuning(n).a_n for n in (3, 10, 100, 1000)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    windows = [default_tuning(n).k_n for n in (10, 100, 1000, 10_000)]
    assert all(k1 > k2 for k1, k2 in zip(windows, windows[1:]))


# ---------------------------------------------------------------------------
# shared weight-pair contract


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 1.0))
def test_weights_sum_to_one_exactly(p):
    w = ModelWeights(p)
    assert w.p_r + w.p_u == 1.0


def test_weights_reject_out_of_range():
    with pytest.raises(ValueError):
        ModelWeights(1.5)
    with pytest.raises(ValueError):
        ModelWeights(-0.1)
    with pytest.raises(ValueError):
        ModelWeights(float("nan"))
    # An array of weights is checked entry by entry.
    with pytest.raises(ValueError):
        ModelWeights(np.array([0.2, 1.5]))
    with pytest.raises(ValueError):
        ModelWeights(np.array([0.2, float("nan")]))


def test_every_rule_valid_for_rough_inputs(rng):
    cfg_a = default_tuning(50)
    for _ in range(100):
        ds = random_dataset(rng, allow_badly_scaled=True)
        stats = compute_design_stats(ds.design)
        for w in (
            _bic_weight(ds),
            ModelWeights(_bma_exact_p_r(ds, 1.0)),
            adaptive_weights(
                solve_normal_equations(
                    stats.s11, stats.s22, stats.s12, stats.det, *response_stats(ds)
                )[1],
                cfg_a,
            ),
        ):
            assert 0.0 <= w.p_r <= 1.0
            assert w.p_r + w.p_u == 1.0


def test_bic_posterior_direction_agreement_reported(rng):
    # Diagnostic only: how often do BIC and exact posterior weights agree on
    # which side of 1/2 they fall? Reported, not asserted.
    agree = 0
    total = 1000
    for _ in range(total):
        ds = random_dataset(rng, n=50)
        q = _bic_weight(ds).p_r
        pi = _bma_exact_p_r(ds, 1.0)
        if (q - 0.5) * (pi - 0.5) >= 0:
            agree += 1
    rate = agree / total
    print(f"\n[diagnostic] BIC vs exact posterior direction agreement: {rate:.1%}")
    assert 0.0 <= rate <= 1.0
