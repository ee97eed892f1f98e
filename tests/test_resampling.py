import math

import numpy as np
import pytest
from scipy import stats as spstats

from modelavg.errors import CollinearDesign, TooManySingularResamples
from modelavg.estimators import Pipeline, make_pipeline
from modelavg.model import Dataset, DesignMatrix
from modelavg.resampling import (
    EmpiricalSample,
    ResampleIndices,
    ResamplePlan,
    mean_model_bootstrap,
    paired_bootstrap,
    subsample_distribution,
)
from modelavg.weights import PretestConfig, default_tuning


def _integer_dataset(n=8, alpha=2.0):
    design = DesignMatrix(np.ones(n), np.arange(float(n)))
    return Dataset(design, alpha * design.x1)


def test_empirical_sample_contract():
    s = EmpiricalSample([2.0, 1.0])
    assert len(s) == 2
    assert np.array_equal(s.sorted_values, [1.0, 2.0])
    assert s.quantile(0.5) == 1.0
    assert s.quantile(1.0) == 2.0
    assert EmpiricalSample(np.arange(100.0, 0.0, -1.0)).quantile(0.07) == 7.0
    with pytest.raises(ValueError):
        EmpiricalSample([])
    with pytest.raises(ValueError):
        EmpiricalSample([1.0, np.nan])


def test_plan_validation():
    with pytest.raises(ValueError):
        ResamplePlan(b=0)
    with pytest.raises(ValueError):
        ResamplePlan(b=5, m=0)
    with pytest.raises(ValueError, match="m=1"):
        ResamplePlan(b=5, m=1)
    assert ResamplePlan(b=5).redraw_budget == 500
    assert ResamplePlan(b=5, max_redraws=3).redraw_budget == 3
    assert ResamplePlan(b=5).size(7) == 7
    assert ResamplePlan(b=5, m=3).size(7) == 3
    with pytest.raises(ValueError, match="m=8"):
        ResamplePlan(b=5, m=8).size(7)


def test_quantile_of_k_over_n_is_the_kth_smallest_value():
    # "Smallest value with ECDF >= q": q = k / N picks the k-th order
    # statistic, also where q * N rounds up past k (0.07 * 100).
    for n in range(1, 201):
        sample = EmpiricalSample(np.arange(n, 0, -1))
        for k in range(1, n + 1):
            assert sample.quantile(k / n) == k, (n, k)


def test_bootstrap_size_contract():
    ds = _integer_dataset()
    proc = make_pipeline("u", 1.0)
    for b in (1, 7):
        sample = paired_bootstrap(ds, proc, ResamplePlan(b=b), np.random.default_rng(0))
        assert len(sample) == b


def test_bootstrap_noiseless_null_point_mass_at_zero():
    # Integer-exact data: every non-collinear resample refits alpha exactly,
    # so each replicate is exactly zero.
    ds = _integer_dataset(n=10, alpha=2.0)
    proc = make_pipeline("ama", 0.0, adaptive_config=default_tuning(10))
    sample = paired_bootstrap(ds, proc, ResamplePlan(b=200), np.random.default_rng(42))
    assert np.all(sample.values == 0.0)


def test_bootstrap_deterministic_given_seed():
    ds = _integer_dataset(n=12, alpha=1.0)
    noisy = Dataset(ds.design, ds.y + np.sin(np.arange(12.0)))
    proc = make_pipeline("ms", 1.0, pretest_config=PretestConfig())
    plan = ResamplePlan(b=64)
    s1 = paired_bootstrap(noisy, proc, plan, np.random.default_rng(9))
    s2 = paired_bootstrap(noisy, proc, plan, np.random.default_rng(9))
    assert np.array_equal(s1.values, s2.values)
    s3 = paired_bootstrap(noisy, proc, plan, np.random.default_rng(10))
    assert not np.array_equal(s1.values, s3.values)


def test_bootstrap_replicates_finite():
    rng = np.random.default_rng(5)
    design = DesignMatrix(np.ones(20), rng.uniform(0, 3, 20))
    ds = Dataset(design, rng.normal(size=20))
    proc = make_pipeline("bma_bic", 1.0)
    sample = paired_bootstrap(ds, proc, ResamplePlan(b=150), rng)
    assert np.all(np.isfinite(sample.values))


def test_bootstrap_first_index_marginal_uniform():
    # The first index of each bootstrap row follows a uniform law over rows;
    # chi-square GOF at significance 1e-6.
    n = 10
    draws = 100_000
    block = ResampleIndices(np.random.default_rng(3), n, ResamplePlan(b=draws)).block
    counts = np.bincount(block[:, 0], minlength=n)
    assert counts.sum() == draws
    expected = draws / n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    critical = spstats.chi2.isf(1e-6, df=n - 1)
    assert chi2 < critical


def test_plain_mean_bootstrap_variance_matches_sample_variance():
    rng = np.random.default_rng(21)
    y = rng.normal(3.0, 1.7, 200)
    sample = mean_model_bootstrap(y, lambda t: 1.0, 5000, rng)
    # Var of sqrt(n)(ybar* - ybar) estimates the population variance of y.
    assert abs(sample.values.var(ddof=1) / y.var(ddof=1) - 1.0) < 0.10


def test_subsample_full_size_is_degenerate():
    rng = np.random.default_rng(8)
    design = DesignMatrix(np.ones(9), np.arange(9.0))
    ds = Dataset(design, rng.normal(size=9))
    proc = make_pipeline("u", 1.0)
    sample = subsample_distribution(ds, proc, ResamplePlan(b=25, m=9), rng)
    assert np.all(sample.values == 0.0)


@pytest.mark.parametrize("n,m", [(9, 2), (9, 4), (12, 12), (50, 20)])
def test_subsample_rows_are_sorted_sets_of_distinct_indices(n, m):
    block = ResampleIndices(np.random.default_rng(n + m), n, ResamplePlan(b=300, m=m)).block
    assert block.shape == (300, m)
    assert block.min() >= 0 and block.max() < n
    assert np.all(np.diff(block, axis=1) > 0)  # strictly increasing: sorted and distinct
    if m == n:
        assert np.all(block == np.arange(n))


def test_index_block_is_one_draw_from_the_callers_generator():
    # Stream layout 2: a change here moves every resampling output.
    boot = ResampleIndices(np.random.default_rng(3), 7, ResamplePlan(b=40)).block
    assert np.array_equal(boot, np.random.default_rng(3).integers(0, 7, size=(40, 7)))
    sub = ResampleIndices(np.random.default_rng(3), 7, ResamplePlan(b=40, m=3)).block
    perm = np.argsort(np.random.default_rng(3).random((40, 7)), axis=1)
    assert np.array_equal(sub, np.sort(perm[:, :3], axis=1))


def test_subsample_size_contract_and_validation():
    ds = _integer_dataset(n=6)
    proc = make_pipeline("r", 1.0)
    sample = subsample_distribution(ds, proc, ResamplePlan(b=11, m=3), np.random.default_rng(0))
    assert len(sample) == 11
    for m in (7, 1):  # m = 1: every one-row design is singular
        with pytest.raises(ValueError):
            subsample_distribution(ds, proc, ResamplePlan(b=2, m=m), np.random.default_rng(0))


def test_subsample_deterministic():
    rng_data = np.random.default_rng(13)
    design = DesignMatrix(np.ones(12), rng_data.uniform(0, 3, 12))
    ds = Dataset(design, rng_data.normal(size=12))
    proc = make_pipeline("ama", 1.0, adaptive_config=default_tuning(12))
    plan = ResamplePlan(b=40, m=5)
    s1 = subsample_distribution(ds, proc, plan, np.random.default_rng(77))
    s2 = subsample_distribution(ds, proc, plan, np.random.default_rng(77))
    assert np.array_equal(s1.values, s2.values)


def test_singular_resamples_are_redrawn():
    # The engine must keep redrawing the singular rows of the n = 2 design and
    # still deliver b finite replicates.
    proc = make_pipeline("u", 1.0)
    ds = _two_row_dataset()
    sample = paired_bootstrap(ds, proc, ResamplePlan(b=50), np.random.default_rng(1))
    assert len(sample) == 50
    assert np.all(np.isfinite(sample.values))


def _two_row_dataset():
    # n = 2: half of all bootstrap rows duplicate one row, a collinear design.
    design = DesignMatrix(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    return Dataset(design, np.array([0.3, 1.9]))


def test_too_many_singular_resamples_raises():
    proc = make_pipeline("u", 1.0)
    with pytest.raises(TooManySingularResamples):
        paired_bootstrap(
            _two_row_dataset(), proc, ResamplePlan(b=4, max_redraws=0), np.random.default_rng(0)
        )


def test_callable_that_is_not_a_pipeline_is_refused():
    ds = _integer_dataset()
    plan = ResamplePlan(b=3)
    for engine in (paired_bootstrap, subsample_distribution):
        with pytest.raises(TypeError, match="make_pipeline"):
            engine(ds, lambda d: float(d.y[0]), plan, np.random.default_rng(0))
    with pytest.raises(ValueError, match="one estimator"):
        paired_bootstrap(ds, Pipeline(("r", "u"), 1.0), plan, np.random.default_rng(0))


# A plan names its scheme by m; neither resampler drops or invents one.
def test_bootstrap_refuses_a_subsampling_plan():
    with pytest.raises(ValueError, match="without m"):
        paired_bootstrap(
            _integer_dataset(), make_pipeline("u", 1.0), ResamplePlan(b=3, m=4),
            np.random.default_rng(0),
        )


def test_subsampling_refuses_a_plan_without_m():
    with pytest.raises(ValueError, match="with a subsample size m"):
        subsample_distribution(
            _integer_dataset(), make_pipeline("u", 1.0), ResamplePlan(b=3),
            np.random.default_rng(0),
        )


def test_several_estimators_are_refused_before_any_draw():
    ds = _integer_dataset()
    both = Pipeline(("r", "u"), 1.0)
    for engine, plan in ((paired_bootstrap, ResamplePlan(b=3)),
                         (subsample_distribution, ResamplePlan(b=3, m=4))):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="one estimator"):
            engine(ds, both, plan, rng)
        assert rng.bit_generator.state == state


def test_original_collinearity_propagates():
    bad = Dataset(DesignMatrix(np.array([1.0, 2.0]), np.array([2.0, 4.0])), np.array([1.0, 0.0]))
    proc = make_pipeline("u", 1.0)
    with pytest.raises(CollinearDesign):
        paired_bootstrap(bad, proc, ResamplePlan(b=3), np.random.default_rng(0))


def test_mean_model_bootstrap_constant_data_point_mass():
    w = lambda t: 1.0 / (1.0 + math.exp(-t))
    sample = mean_model_bootstrap(np.full(7, 4.0), w, 60, np.random.default_rng(0))
    mu_hat = w(math.sqrt(7) * 4.0) * 4.0
    expected = math.sqrt(7) * (w(0.0) * 4.0 - mu_hat)
    assert np.all(sample.values == sample.values[0])
    assert sample.values[0] == pytest.approx(expected, rel=1e-12)


def test_mean_model_bootstrap_shrinks_by_constant_rules():
    # W = 1 leaves mu_hat = ybar = 2, so each replicate is sqrt(2) * (ybar* - 2);
    # W = 0 gives mu_hat = mu* = 0, so each replicate is 0.
    y = np.array([1.0, 3.0])
    ybar_star = y[np.random.default_rng(3).integers(0, 2, size=(40, 2))].mean(axis=1)
    s1 = mean_model_bootstrap(y, lambda t: 1.0, 40, np.random.default_rng(3))
    assert np.array_equal(s1.values, math.sqrt(2) * (ybar_star - 2.0))
    s0 = mean_model_bootstrap(y, lambda t: 0.0, 40, np.random.default_rng(3))
    assert np.array_equal(s0.values, np.zeros(40))


def test_mean_model_bootstrap_worked_logistic():
    # Constant data: ybar* = 1, so every replicate is sqrt(n) * (W(0) * 1 - mu_hat),
    # with sqrt(n) * ybar = 2, W(2) = logistic(-1) ~ 0.26894 and mu_hat = W(2) * 1.
    w = lambda t: 1.0 / (1.0 + math.exp(t * t / 4.0))
    sample = mean_model_bootstrap(np.ones(4), w, 30, np.random.default_rng(0))
    mu_hat = w(0.0) - sample.values / 2.0
    assert mu_hat == pytest.approx(np.full(30, 1.0 / (1.0 + math.e)), rel=1e-12)
    assert mu_hat == pytest.approx(np.full(30, 0.26894), abs=1e-5)


def test_mean_model_bootstrap_w1_reduces_to_mean_bootstrap():
    rng = np.random.default_rng(17)
    y = rng.normal(size=25)
    s = mean_model_bootstrap(y, lambda t: 1.0, 200, np.random.default_rng(4))
    # Reproduce with the same index stream: Lambda* = sqrt(n)(ybar* - ybar).
    idx = np.random.default_rng(4).integers(0, 25, size=(200, 25))
    expected = math.sqrt(25) * (y[idx].mean(axis=1) - y.mean())
    np.testing.assert_allclose(s.values, expected, rtol=1e-12, atol=1e-12)


def test_mean_model_bootstrap_formula_single_observation():
    # n = 1: the only resample is the sample itself, so the replicate is
    # sqrt(1) * (W(0) * y1 - W(y1) * y1), hand-computable.
    y1 = 0.8
    w = lambda t: 1.0 / (1.0 + math.exp(-t))
    sample = mean_model_bootstrap(np.array([y1]), w, 5, np.random.default_rng(0))
    expected = w(0.0) * y1 - w(y1) * y1
    assert np.allclose(sample.values, expected, rtol=1e-12)


def test_mean_model_bootstrap_formula_enumerated_two_points():
    # n = 2, y = (0, 3): ybar* is 0, 1.5, or 3; every replicate must equal the
    # null-reflecting formula for one of those three means.
    y = np.array([0.0, 3.0])
    w = lambda t: 1.0 / (1.0 + math.exp(-(t * t) / 8.0))
    ybar = 1.5
    mu_hat = w(math.sqrt(2) * ybar) * ybar
    possible = {
        round(math.sqrt(2) * (w(math.sqrt(2) * (m - ybar)) * m - mu_hat), 12)
        for m in (0.0, 1.5, 3.0)
    }
    sample = mean_model_bootstrap(y, w, 100, np.random.default_rng(6))
    got = {round(v, 12) for v in sample.values}
    assert got <= possible
    assert len(got) == 3  # all three resample patterns appear in 100 draws


def test_mean_model_bootstrap_validation():
    for y in (np.array([]), np.ones((2, 2))):
        with pytest.raises(ValueError, match="non-empty vector"):
            mean_model_bootstrap(y, lambda t: 1.0, 5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mean_model_bootstrap(np.array([1.0]), lambda t: 1.0, 0, np.random.default_rng(0))
