import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modelavg
from modelavg.errors import CollinearDesign
from modelavg.estimators import (
    ESTIMATOR_NAMES,
    P_R_RULES,
    Pipeline,
    _convex,
    make_pipeline,
)
from modelavg.experiments import _draw_products, draw_dataset, make_scenario, mc_estimator_draws
from modelavg.model import (
    Dataset,
    DesignMatrix,
    TrueParams,
    compute_design_stats,
    generate_response,
    response_stats,
    slope_sd,
    solve_normal_equations,
)
from modelavg.weights import AdaptiveConfig, PretestConfig, default_tuning

from conftest import ols_normal_equation_oracle, random_dataset


def _hand_dataset():
    design = DesignMatrix(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    return Dataset(design, np.array([1.0, 2.0, 3.0]))


def _ms(ds, pretest):
    return make_pipeline("ms", 1.0, pretest).fit(ds)[0]["ms"]


def _fit_all(ds, pretest, adaptive, sigma):
    """All six estimates and the weights behind them, plus beta_u from the normal equations."""
    est, p_r = Pipeline(ESTIMATOR_NAMES, sigma, pretest, adaptive).fit(ds)
    stats = compute_design_stats(ds.design)
    p1, p2 = response_stats(ds)
    est["beta_u"] = solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)[1]
    return est, p_r


def test_post_model_selection_huge_threshold_keeps_r():
    assert _ms(_hand_dataset(), PretestConfig(c=1e6)) == pytest.approx(2.0, abs=1e-12)


def test_post_model_selection_tiny_threshold_takes_u():
    assert _ms(_hand_dataset(), PretestConfig(c=1e-12)) == pytest.approx(1.0, abs=1e-10)


def test_post_model_selection_exact_tie_keeps_r():
    # Design with sigma_beta = 1 and beta_u = y2 - y1 exactly: putting the
    # statistic exactly on the threshold must keep the restricted model.
    design = DesignMatrix(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    stats = compute_design_stats(design)
    assert slope_sd(1.0, stats.s11, stats.det) == 1.0
    c = 1.5
    ds = Dataset(design, np.array([0.25, c]))  # beta_u = y2 for this design
    assert _ms(ds, PretestConfig(c=c)) == 0.25
    ds_above = Dataset(design, np.array([0.25, np.nextafter(c, 2.0)]))
    assert _ms(ds_above, PretestConfig(c=c)) != 0.25


def test_collinear_design_propagates_through_pipeline():
    # The design is refused when it is built, so no pipeline can meet it.
    proc = make_pipeline("ms", 1.0, pretest=PretestConfig())
    with pytest.raises(CollinearDesign):
        proc.fit(Dataset(
            DesignMatrix(np.array([1.0, 2.0]), np.array([2.0, 4.0])), np.array([1.0, 2.0])
        ))


def test_bma_bic_at_an_overflowing_rss_gap_is_u_without_a_warning():
    # At beta_u = 1e160 the RSS gap beta_u^2 det / s11 overflows to inf, the
    # BIC rule's intended limit: all weight on U, and no warning.
    design = modelavg.load_reference_design()
    s11, s22, s12 = design.stats.s11, design.stats.s22, design.stats.s12
    beta = np.array([1e160, -1e160])
    p1, p2 = s11 + beta * s12, s12 + beta * s22  # y = x1 + beta x2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, p_r = Pipeline(("bma_bic", "u"), 1.0).kernel(design.n, s11, s22, s12, p1, p2)
    assert np.array_equal(p_r["bma_bic"], [0.0, 0.0])
    assert np.array_equal(est["bma_bic"], est["u"])


@pytest.mark.parametrize("sigma", [1e-60, 1e-78, 1e-100, 1e-170, 5e-324])
def test_bma_exact_at_a_tiny_sigma_is_the_sigma_zero_limit(sigma):
    # (1 + G/u) overflowed to nan from 1e-78 down, and sigma^2 underflowed to
    # a division by zero from ~1e-162 down; on a beta = 0.5 response the
    # weight on R is 0, as at the sigma = 0 limit.
    design = modelavg.load_reference_design()
    ds = generate_response(design, TrueParams(1.0, 0.5, sigma), np.random.default_rng(11))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, p_r = Pipeline("bma_exact", sigma).fit(ds)
    limit_est, limit_p_r = Pipeline("bma_exact", 0.0).fit(ds)
    assert p_r == limit_p_r == {"bma_exact": 0.0}
    assert est == limit_est


@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
def test_pipeline_refuses_a_bad_sigma_when_built(sigma):
    # A negative sigma used to pass construction and make the pretest
    # threshold negative, so the kernel returned ms == u without a word; an
    # infinite one gave bma_exact = nan.
    with pytest.raises(ValueError, match="sigma"):
        Pipeline(("ms", "u", "r"), sigma, PretestConfig())
    with pytest.raises(ValueError, match="sigma"):
        make_pipeline("ms", sigma, PretestConfig())


@pytest.mark.parametrize(
    "prior, match",
    [
        ({"prior_scale": 0.0}, "prior_scale"),
        ({"prior_scale": float("nan")}, "prior_scale"),
        ({"prior_p_r": 0.0}, "prior_p_r"),
        ({"prior_p_r": 1.0}, "prior_p_r"),
        ({"prior_scale": float("inf")}, "prior_scale"),
    ],
)
def test_pipeline_refuses_a_bad_prior_when_built(prior, match):
    # A bad prior used to pass construction and fail only when bma_exact was fitted.
    with pytest.raises(ValueError, match=match):
        Pipeline(("bma_exact",), 1.0, **prior)
    with pytest.raises(ValueError, match=match):
        make_pipeline("u", 1.0, **prior)


def test_model_average_endpoints_and_midpoint():
    assert _convex(2.0, 1.0, 0.0) == 1.0
    assert _convex(2.0, 1.0, 1.0) == 2.0
    assert _convex(2.0, 1.0, 0.5) == pytest.approx(1.5, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    alpha_r=st.floats(-1e12, 1e12),
    alpha_u=st.floats(-1e12, 1e12),
    p=st.floats(0.0, 1.0),
)
def test_model_average_stays_in_hull(alpha_r, alpha_u, p):
    value = _convex(alpha_r, alpha_u, p)
    assert min(alpha_r, alpha_u) <= value <= max(alpha_r, alpha_u)


def test_pipeline_fit_noiseless_null_all_equal():
    # Integer-valued design and response: every intermediate is exact, so all
    # six estimates equal alpha bit-for-bit.
    design = DesignMatrix(np.ones(6), np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    ds = Dataset(design, 2.0 * design.x1)
    est, _ = _fit_all(ds, PretestConfig(), default_tuning(6), sigma=0.0)
    for name in ESTIMATOR_NAMES:
        assert est[name] == 2.0
    assert est["beta_u"] == 0.0


def test_pipeline_fit_orthogonal_design_collapses_to_u(rng):
    design = DesignMatrix(np.array([1.0, 1.0, 1.0, 1.0]), np.array([-3.0, -1.0, 1.0, 3.0]))
    for _ in range(10):
        ds = Dataset(design, rng.normal(size=4))
        est, _ = _fit_all(ds, PretestConfig(), default_tuning(4), sigma=1.0)
        for name in ("r", "ms", "bma_exact", "bma_bic", "ama"):
            assert est[name] == pytest.approx(est["u"], rel=1e-13, abs=1e-13)


def test_pipeline_fit_zero_slope_all_equal():
    design = DesignMatrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ds = Dataset(design, np.array([0.37, 0.0]))  # beta_u = y2 = 0 exactly
    est, p_r = _fit_all(ds, PretestConfig(), AdaptiveConfig(16.0, 0.25), sigma=1.0)
    assert est["beta_u"] == 0.0
    assert {est[name] for name in ESTIMATOR_NAMES} == {0.37}
    assert p_r["ama"] == 0.5


def test_pipeline_fit_hull_and_ms_membership(rng):
    pretest = PretestConfig()
    adaptive = default_tuning(20)
    for _ in range(200):
        ds = random_dataset(rng)
        est, _ = _fit_all(ds, pretest, adaptive, sigma=1.0)
        lo = min(est["r"], est["u"])
        hi = max(est["r"], est["u"])
        for name in ("bma_exact", "bma_bic", "ama"):
            assert lo <= est[name] <= hi
        assert est["ms"] in (est["r"], est["u"])


def test_location_equivariance_ms_ama(rng):
    # Shifting y by delta * x1 shifts every estimate by delta; pretest and
    # adaptive weights are unchanged because beta_u is unchanged.
    pretest = PretestConfig()
    adaptive = default_tuning(20)
    diffs_bma = []
    for _ in range(50):
        ds = random_dataset(rng)
        delta = float(rng.normal(0.0, 3.0))
        shifted = Dataset(ds.design, ds.y + delta * ds.design.x1)
        e0, w0 = _fit_all(ds, pretest, adaptive, sigma=1.0)
        e1, w1 = _fit_all(shifted, pretest, adaptive, sigma=1.0)
        scale = 1.0 + abs(e0["ms"]) + abs(delta)
        assert abs(e1["ms"] - (e0["ms"] + delta)) < 1e-10 * scale
        assert abs(e1["ama"] - (e0["ama"] + delta)) < 1e-10 * scale
        assert abs(e1["beta_u"] - e0["beta_u"]) < 1e-10 * (1.0 + abs(e0["beta_u"]))
        assert w1["ama"] == pytest.approx(w0["ama"], rel=1e-9)
        diffs_bma.append(abs(e1["bma_exact"] - (e0["bma_exact"] + delta)))
    # The exact-posterior average is not location equivariant; report only.
    print(f"\n[diagnostic] max |BMA-exact shift mismatch| over 50 draws: {max(diffs_bma):.3e}")


def test_golden_bundle_reference_design():
    # Frozen after the oracle suites passed; guards against regressions.
    scenario = make_scenario(n=50, seed=5050, reps=1, alpha=1.0, beta=0.5, sigma=1.0)
    ds = draw_dataset(scenario)
    est, p_r = _fit_all(ds, scenario.pretest, scenario.adaptive, 1.0)
    expected = {
        "r": 1.8507221732113366,
        "u": 0.9549287168969826,
        "beta_u": 0.5520719229966496,
        "ms": 0.9549287168969826,
        "bma_exact": 0.9586012690569805,
        "bma_bic": 0.9663481341013135,
        "ama": 0.9960982589218111,
    }
    for name, value in expected.items():
        assert est[name] == pytest.approx(value, rel=1e-12), name
    assert p_r["bma_exact"] == pytest.approx(0.004099775605761013, rel=1e-12)
    assert p_r["bma_bic"] == pytest.approx(0.012747823869259848, rel=1e-12)
    assert p_r["ama"] == pytest.approx(0.04595874387631306, rel=1e-12)


# ---------------------------------------------------------------------------
# the sufficient-statistic kernel


def _scaled_x2(ds, c):
    return Dataset(DesignMatrix(ds.design.x1, c * ds.design.x2), ds.y)


def _kernel(ds, names, sigma, pretest=None, adaptive=None):
    x1, x2, y = ds.design.x1, ds.design.x2, ds.y
    return Pipeline(names, sigma, pretest, adaptive).kernel(
        ds.n, x1 @ x1, x2 @ x2, x1 @ x2, x1 @ y, x2 @ y
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
def test_every_estimate_invariant_under_x2_sign_flip(seed, sigma):
    # s12 and <x2,y> change sign and beta_u with them; every estimate depends
    # on them only through products that cancel the sign, so equality is exact.
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, allow_badly_scaled=True)
    flipped = _scaled_x2(ds, -1.0)
    pretest, adaptive = PretestConfig(), default_tuning(ds.n)
    e0, _ = _fit_all(ds, pretest, adaptive, sigma)
    e1, _ = _fit_all(flipped, pretest, adaptive, sigma)
    for name in ESTIMATOR_NAMES:
        assert e1[name] == e0[name], name
    assert e1["beta_u"] == -e0["beta_u"]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.floats(1e-3, 1e3).flatmap(lambda v: st.sampled_from([v, -v])),
)
def test_ms_and_bma_bic_invariant_under_x2_rescaling(seed, c):
    # The t-statistic and RSS_R - RSS_U do not depend on the units of x2.
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng)
    names = ("ms", "bma_bic")
    est0, p0 = _kernel(ds, names, 1.0, PretestConfig())
    est1, p1 = _kernel(_scaled_x2(ds, c), names, 1.0, PretestConfig())
    assert p1["bma_bic"] == pytest.approx(p0["bma_bic"], rel=1e-9, abs=1e-12)
    assert est1["bma_bic"] == pytest.approx(est0["bma_bic"], rel=1e-9, abs=1e-9)
    assert est1["ms"] == pytest.approx(est0["ms"], rel=1e-9, abs=1e-9)


def test_bic_weight_matches_residual_vector_oracle(rng):
    # Closed form RSS_R - RSS_U = beta_u^2 det / s11 against explicit residuals.
    for _ in range(300):
        ds = random_dataset(rng, allow_badly_scaled=True)
        x1, x2, y = ds.design.x1, ds.design.x2, ds.y
        alpha_u, beta_u = ols_normal_equation_oracle(ds)
        rss_u = float(np.sum((y - alpha_u * x1 - beta_u * x2) ** 2))
        rss_r = float(np.sum((y - (x1 @ y) / (x1 @ x1) * x1) ** 2))
        oracle = 1.0 / (1.0 + math.exp(-(rss_u - rss_r + math.log(ds.n)) / 2.0))
        _, p_r = _kernel(ds, ("bma_bic",), 1.0)
        assert float(p_r["bma_bic"]) == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_bic_weight_uses_rss_not_rss_over_sigma_squared():
    # Orthonormal design with beta_u = 3, so RSS_R - RSS_U = 9. The weight
    # is a function of RSS alone; the known-sigma BIC, which would use
    # RSS / sigma^2, coincides with it only at sigma = 1.
    ds = Dataset(DesignMatrix(np.array([1.0, 0.0]), np.array([0.0, 1.0])), np.array([0.7, 3.0]))
    weights = {s: float(_kernel(ds, ("bma_bic",), s)[1]["bma_bic"]) for s in (0.0, 0.5, 1.0, 4.0)}
    rss_form = 1.0 / (1.0 + math.exp(-(math.log(2.0) - 9.0) / 2.0))
    for sigma, w in weights.items():
        assert w == pytest.approx(rss_form, rel=1e-12), sigma
    known_sigma_form = 1.0 / (1.0 + math.exp(-(math.log(2.0) - 9.0 / 16.0) / 2.0))
    assert abs(weights[4.0] - known_sigma_form) > 0.5


def test_pipeline_matches_direct_computation(rng):
    pretest = PretestConfig()
    adaptive = default_tuning(20)
    procs = {
        name: make_pipeline(name, 1.0, pretest, adaptive)
        for name in ("r", "u", "ms", "bma_exact", "bma_bic", "ama")
    }
    multi = Pipeline(("r", "u", "ms", "bma_exact", "bma_bic", "ama"), 1.0, pretest, adaptive)
    for _ in range(25):
        ds = random_dataset(rng)
        stats = compute_design_stats(ds.design)
        p1, p2 = response_stats(ds)
        est, _ = Pipeline(ESTIMATOR_NAMES, 1.0, pretest, adaptive).kernel(
            ds.n, stats.s11, stats.s22, stats.s12, p1, p2
        )
        got, _ = multi.fit(ds)
        for name in procs:
            assert procs[name].fit(ds)[0][name] == got[name]
            assert got[name] == est[name]


def test_pipeline_validation():
    with pytest.raises(ValueError):
        make_pipeline("nope", 1.0)
    with pytest.raises(ValueError):
        Pipeline(("ms",), 1.0, pretest=None)
    with pytest.raises(ValueError):
        Pipeline(("ama",), 1.0, adaptive=None)


@pytest.mark.parametrize("name", ["ms", "ama", "u"])
def test_pipeline_reads_a_string_as_one_name(name, rng):
    # A string names one estimator, never a sequence of one-letter names:
    # Pipeline("ms", ...) is Pipeline(("ms",), ...) and fits the same floats.
    one = Pipeline(name, 1.0, PretestConfig(), default_tuning(50))
    assert one.names == (name,)
    assert one == Pipeline((name,), 1.0, PretestConfig(), default_tuning(50))
    ds = random_dataset(rng)
    assert one.fit(ds) == Pipeline((name,), 1.0, PretestConfig(), default_tuning(50)).fit(ds)
    assert one(ds) == one.fit(ds)[0][name]


def test_make_pipeline_is_pipeline():
    # One constructor: make_pipeline is another name for Pipeline, with its keywords.
    assert make_pipeline is Pipeline
    assert modelavg.make_pipeline is modelavg.Pipeline
    assert make_pipeline("ms", 1.0, PretestConfig()) == Pipeline(("ms",), 1.0, PretestConfig())
    with pytest.raises(TypeError):
        make_pipeline("ms", 1.0, pretest_config=PretestConfig())


# ---------------------------------------------------------------------------
# the rule table: every estimate is alpha_u + p_R * (alpha_r - alpha_u)


def test_estimator_names_are_the_rule_table():
    assert ESTIMATOR_NAMES == tuple(P_R_RULES)
    assert ESTIMATOR_NAMES == ("r", "u", "ms", "bma_exact", "bma_bic", "ama")


def _assert_combined(est, p_r, alpha_r, alpha_u):
    """A boolean p_R gave alpha_r or alpha_u bit for bit; a float one gave _convex."""
    assert set(p_r) == set(est) == set(ESTIMATOR_NAMES)
    for name, p in p_r.items():
        if np.result_type(p) == bool:
            keep_r = np.broadcast_to(p, np.shape(alpha_r))
            assert np.array_equal(est[name][keep_r], alpha_r[keep_r]), name
            assert np.array_equal(est[name][~keep_r], alpha_u[~keep_r]), name
        else:
            assert np.array_equal(est[name], _convex(alpha_r, alpha_u, p)), name


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_array_kernel_weights_every_name_and_combines_by_type(rng, sigma):
    datasets = [random_dataset(rng, n=20) for _ in range(200)]
    sums = np.array([
        (x1 @ x1, x2 @ x2, x1 @ x2, x1 @ y, x2 @ y)
        for x1, x2, y in ((d.design.x1, d.design.x2, d.y) for d in datasets)
    ]).T
    s11, s22, s12, p1, p2 = sums
    alpha_r = p1 / s11
    alpha_u = solve_normal_equations(s11, s22, s12, s11 * s22 - s12 * s12, p1, p2)[0]
    pipeline = Pipeline(ESTIMATOR_NAMES, sigma, PretestConfig(), default_tuning(20))
    est, p_r = pipeline.kernel(20, *sums)
    assert p_r["r"] is True and p_r["u"] is False
    assert np.result_type(p_r["ms"]) == bool
    # At sigma = 0 the threshold is 0, so ms keeps U for every nonzero slope.
    assert 0 < np.count_nonzero(p_r["ms"]) < len(datasets) if sigma else not p_r["ms"].any()
    for name in ("bma_exact", "bma_bic", "ama"):
        assert np.result_type(p_r[name]) == np.float64
    _assert_combined(est, p_r, alpha_r, alpha_u)


def test_fit_weights_every_name(rng):
    pipeline = Pipeline(ESTIMATOR_NAMES, 1.0, PretestConfig(), default_tuning(20))
    for _ in range(50):
        ds = random_dataset(rng, n=20)
        est, p_r = pipeline.fit(ds)
        assert set(p_r) == set(est) == set(ESTIMATOR_NAMES)
        assert all(type(v) is float for v in (*est.values(), *p_r.values()))
        assert (p_r["r"], p_r["u"]) == (1.0, 0.0)
        assert p_r["ms"] in (0.0, 1.0)
        assert est["ms"] == (est["r"] if p_r["ms"] == 1.0 else est["u"])
        for name in ("bma_exact", "bma_bic", "ama"):
            assert est[name] == float(_convex(est["r"], est["u"], p_r[name])), name


def test_selection_is_exact_where_the_average_at_one_misses_alpha_r():
    # On the seed-5050 Monte Carlo draws at beta = 0, alpha_u + 1.0 * (alpha_r
    # - alpha_u) rounds away from alpha_r in a few rows (5 of 5000). Selection
    # must still return alpha_r and alpha_u themselves there.
    scenario = make_scenario(50, 5050, 5000)
    stats = compute_design_stats(scenario.design)
    p1, p2 = _draw_products(scenario, 0)
    alpha_r = p1 / stats.s11
    alpha_u = solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)[0]
    rows = _convex(alpha_r, alpha_u, 1.0) != alpha_r
    assert rows.any()
    est, p_r = mc_estimator_draws(scenario, ESTIMATOR_NAMES)
    assert np.array_equal(est["r"][rows], alpha_r[rows])
    assert np.array_equal(est["u"][rows], alpha_u[rows])
    _assert_combined(est, p_r, alpha_r, alpha_u)
