import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelavg.errors import CollinearDesign, ZeroColumn
from modelavg.estimators import Pipeline
from modelavg.experiments import stream
from modelavg.model import (
    COLLINEARITY_RTOL,
    REFERENCE_DESIGN_SEED,
    Dataset,
    DesignMatrix,
    TrueParams,
    compute_design_stats,
    generate_response,
    load_reference_design,
    make_uniform_design,
    read_design_csv,
    response_stats,
    singular_design,
    slope_sd,
    solve_normal_equations,
    write_design_csv,
)

from conftest import ols_normal_equation_oracle, random_dataset

# The restricted and unrestricted estimates of alpha, from the kernel.
R_AND_U = Pipeline(("r", "u"), 1.0)


def test_design_matrix_validation():
    with pytest.raises(ValueError):
        DesignMatrix(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        DesignMatrix(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ZeroColumn):
        DesignMatrix(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ZeroColumn):
        DesignMatrix(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        DesignMatrix(np.array([1.0, np.nan]), np.array([1.0, 2.0]))


def test_dataset_validation():
    design = DesignMatrix(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Dataset(design, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        TrueParams(alpha=0.0, beta=0.0, sigma=-1.0)


def test_design_stats_orthonormal_columns():
    design = DesignMatrix(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    stats = compute_design_stats(design)
    assert stats.s11 == 1.0
    assert stats.s22 == 1.0
    assert stats.s12 == 0.0
    assert stats.det == 1.0
    assert slope_sd(1.0, stats.s11, stats.det) == 1.0


def test_design_stats_collinear_raises():
    design = DesignMatrix(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    with pytest.raises(CollinearDesign):
        compute_design_stats(design)


def test_singular_design_is_true_exactly_where_design_stats_raise():
    # x2 = x1 + eps * z with eps on a log grid through the collinearity
    # tolerance (det / (s11 s22) ~ eps^2), plus an x1 whose squared norm
    # underflows to zero (DesignMatrix refuses an identically zero column).
    rng = np.random.default_rng(31)
    x1, z = rng.normal(size=20), rng.normal(size=20)
    designs = [DesignMatrix(x1, x1 + eps * z) for eps in np.logspace(-9, -3, 121)]
    designs.append(DesignMatrix(np.full(20, 1e-170), rng.normal(size=20)))
    flags = []
    for design in designs:
        s11, s22, s12 = (
            float(np.sum(a * b))
            for a, b in ((design.x1, design.x1), (design.x2, design.x2), (design.x1, design.x2))
        )
        flag = bool(singular_design(s11, s22, s12))
        assert flag == (s11 <= 0.0 or s11 * s22 - s12 * s12 <= COLLINEARITY_RTOL * s11 * s22)
        try:
            compute_design_stats(design)
            raised = None
        except (ZeroColumn, CollinearDesign) as exc:
            raised = type(exc)
        assert raised == (None if not flag else ZeroColumn if s11 == 0.0 else CollinearDesign)
        flags.append(flag)
    assert flags[-1] and any(flags[:-1]) and not all(flags[:-1])
    # The predicate is elementwise over arrays of inner products.
    s = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    assert singular_design(s[0], s[1], s[2]).tolist() == [False, True, True]


def test_design_stats_hand_example_matches_gram_oracle():
    design = DesignMatrix(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    stats = compute_design_stats(design)
    assert stats.s11 == 3.0
    assert stats.s22 == 5.0
    assert stats.s12 == 3.0
    assert stats.det == 6.0
    sigma_beta = slope_sd(1.0, stats.s11, stats.det)
    assert sigma_beta == pytest.approx(math.sqrt(3.0) / math.sqrt(6.0), rel=1e-14)
    # Independent oracle: sigma_beta^2 is the (2,2) entry of sigma^2 (X'X)^{-1}.
    x = np.column_stack([design.x1, design.x2])
    gram_inv = np.linalg.inv(x.T @ x)
    assert sigma_beta == pytest.approx(math.sqrt(gram_inv[1, 1]), rel=1e-12)
    assert np.linalg.det(x.T @ x) == pytest.approx(stats.det, rel=1e-12)


def test_design_stats_consistency_invariant(rng):
    for _ in range(50):
        ds = random_dataset(rng)
        sigma = float(rng.uniform(0.1, 3.0))
        stats = compute_design_stats(ds.design)
        assert stats.det >= 0.0
        assert slope_sd(sigma, stats.s11, stats.det) ** 2 * stats.det == pytest.approx(
            sigma ** 2 * stats.s11, rel=1e-12
        )


def test_generate_response_noiseless_exact():
    design = DesignMatrix(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    params = TrueParams(alpha=1.0, beta=2.0, sigma=0.0)
    ds = generate_response(design, params, np.random.default_rng(0))
    assert ds.y[0] == 1.0
    assert ds.y[1] == 3.0


def test_generate_response_deterministic():
    design = DesignMatrix(np.ones(5), np.arange(5.0))
    params = TrueParams(alpha=0.3, beta=-1.2, sigma=0.7)
    y1 = generate_response(design, params, np.random.default_rng(123)).y
    y2 = generate_response(design, params, np.random.default_rng(123)).y
    assert np.array_equal(y1, y2)


def test_generate_response_law_of_large_numbers():
    design = DesignMatrix(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    params = TrueParams(alpha=0.0, beta=0.0, sigma=1.0)
    rng = np.random.default_rng(7)
    reps = 100_000
    first = np.empty(reps)
    for i in range(reps):
        first[i] = generate_response(design, params, rng).y[0]
    assert abs(first.mean()) < 0.02
    assert abs(first.var(ddof=1) - 1.0) < 0.03


def test_fit_hand_example():
    design = DesignMatrix(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0]))
    ds = Dataset(design, np.array([1.0, 2.0, 3.0]))
    stats = compute_design_stats(design)
    p1, p2, _ = response_stats(ds)
    alpha_u, beta_u = solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)
    assert alpha_u == pytest.approx(1.0, abs=1e-12)
    assert beta_u == pytest.approx(1.0, abs=1e-12)
    assert R_AND_U.fit(ds)[0]["r"] == pytest.approx(2.0, abs=1e-12)
    a_or, b_or = ols_normal_equation_oracle(ds)
    assert alpha_u == pytest.approx(a_or, rel=1e-12)
    assert beta_u == pytest.approx(b_or, rel=1e-12)


def test_fit_noiseless_recovers_truth_exactly(rng):
    for _ in range(20):
        ds = random_dataset(rng)
        alpha, beta = float(rng.normal()), float(rng.normal())
        y = alpha * ds.design.x1 + beta * ds.design.x2
        noiseless = Dataset(ds.design, y)
        stats = compute_design_stats(ds.design)
        p1, p2, _ = response_stats(noiseless)
        alpha_u, beta_u = solve_normal_equations(
            stats.s11, stats.s22, stats.s12, stats.det, p1, p2
        )
        assert alpha_u == pytest.approx(alpha, rel=1e-9, abs=1e-9)
        assert beta_u == pytest.approx(beta, rel=1e-9, abs=1e-9)
        resid = y - alpha_u * ds.design.x1 - beta_u * ds.design.x2
        assert np.max(np.abs(resid)) < 1e-8 * (1.0 + np.max(np.abs(y)))


def test_fit_refit_bit_identical(rng):
    ds = random_dataset(rng)
    assert R_AND_U.fit(ds) == R_AND_U.fit(ds)
    stats = compute_design_stats(ds.design)
    fits = [
        solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, *response_stats(ds)[:2])
        for _ in range(2)
    ]
    assert fits[0] == fits[1]


def test_fits_match_normal_equation_oracle(rng):
    for _ in range(1000):
        ds = random_dataset(rng)
        stats = compute_design_stats(ds.design)
        p1, p2, _ = response_stats(ds)
        alpha_u, beta_u = solve_normal_equations(
            stats.s11, stats.s22, stats.s12, stats.det, p1, p2
        )
        a_or, b_or = ols_normal_equation_oracle(ds)
        scale = 1.0 + abs(a_or) + abs(b_or)
        assert abs(alpha_u - a_or) < 1e-10 * scale
        assert abs(beta_u - b_or) < 1e-10 * scale


def test_restricted_unrestricted_identity(rng):
    # alpha_r = alpha_u + beta_u * s12 / s11 for every non-collinear dataset.
    for _ in range(1000):
        ds = random_dataset(rng)
        stats = compute_design_stats(ds.design)
        p1, p2, _ = response_stats(ds)
        alpha_u, beta_u = solve_normal_equations(
            stats.s11, stats.s22, stats.s12, stats.det, p1, p2
        )
        alpha_r = R_AND_U.fit(ds)[0]["r"]
        rhs = alpha_u + beta_u * stats.s12 / stats.s11
        assert abs(alpha_r - rhs) < 1e-10 * (1.0 + abs(alpha_r))


def test_identity_holds_for_long_designs():
    rng = np.random.default_rng(11)
    n = 100_000
    design = DesignMatrix(rng.normal(1.0, 1.0, n), rng.normal(-0.5, 2.0, n))
    ds = Dataset(design, rng.normal(0.0, 1.0, n))
    stats = compute_design_stats(design)
    p1, p2, _ = response_stats(ds)
    alpha_u, beta_u = solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)
    alpha_r = R_AND_U.fit(ds)[0]["r"]
    rhs = alpha_u + beta_u * stats.s12 / stats.s11
    assert abs(alpha_r - rhs) < 1e-10 * (1.0 + abs(alpha_r))


def test_orthogonal_design_equal_fits(rng):
    x1 = np.array([1.0, 1.0, 1.0, 1.0])
    x2 = np.array([-3.0, -1.0, 1.0, 3.0])  # <x1, x2> = 0
    design = DesignMatrix(x1, x2)
    stats = compute_design_stats(design)
    assert stats.s12 == 0.0
    for _ in range(20):
        est, _ = R_AND_U.fit(Dataset(design, rng.normal(size=4)))
        assert est["r"] == pytest.approx(est["u"], rel=1e-14, abs=1e-14)


def test_latent_coordinates_reproduce_fits(rng):
    # Recover V1, V2 from the simulated noise and check the closed-form
    # representation of (alpha_r, alpha_u, beta_u) they imply.
    for _ in range(50):
        ds_base = random_dataset(rng)
        design = ds_base.design
        params = TrueParams(alpha=float(rng.normal()), beta=float(rng.normal()), sigma=1.3)
        ds = generate_response(design, params, rng)
        e = ds.y - params.alpha * design.x1 - params.beta * design.x2
        stats = compute_design_stats(design)
        norm_x1 = math.sqrt(stats.s11)
        root_det = math.sqrt(stats.det)
        v1 = float(design.x1 @ e) / (params.sigma * norm_x1)
        v2 = (
            norm_x1
            * (float(design.x2 @ e) - stats.s12 * float(design.x1 @ e) / stats.s11)
            / (params.sigma * root_det)
        )
        alpha_r = R_AND_U.fit(ds)[0]["r"]
        p1, p2, _ = response_stats(ds)
        alpha_u, beta_u = solve_normal_equations(
            stats.s11, stats.s22, stats.s12, stats.det, p1, p2
        )
        pred_alpha_r = (
            params.alpha
            + params.beta * stats.s12 / stats.s11
            + params.sigma * v1 / norm_x1
        )
        pred_alpha_u = (
            params.alpha
            + params.sigma * v1 / norm_x1
            - params.sigma * stats.s12 * v2 / (norm_x1 * root_det)
        )
        pred_beta_u = params.beta + params.sigma * norm_x1 * v2 / root_det
        tol = 1e-10 * (1.0 + abs(alpha_r) + abs(beta_u))
        assert abs(alpha_r - pred_alpha_r) < tol
        assert abs(alpha_u - pred_alpha_u) < tol
        assert abs(beta_u - pred_beta_u) < tol


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-100, 100),
            st.floats(-100, 100),
            st.floats(-100, 100),
        ),
        min_size=2,
        max_size=12,
    )
)
def test_identity_property_hypothesis(data):
    x1 = np.array([row[0] for row in data])
    x2 = np.array([row[1] for row in data])
    y = np.array([row[2] for row in data])
    try:
        design = DesignMatrix(x1, x2)
        stats = compute_design_stats(design)
    except (ZeroColumn, CollinearDesign):
        return
    ds = Dataset(design, y)
    p1, p2, _ = response_stats(ds)
    alpha_u, beta_u = solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)
    alpha_r = R_AND_U.fit(ds)[0]["r"]
    rhs = alpha_u + beta_u * stats.s12 / stats.s11
    # Badly conditioned corners get a proportionally looser gate.
    cond = stats.s11 * stats.s22 / stats.det
    assert abs(alpha_r - rhs) < 1e-10 * cond * (1.0 + abs(alpha_r) + abs(alpha_u))


def test_design_with_a_subnormal_residual_is_collinear():
    # s11 * s22 underflows, so the relative test alone passes det = 5e-324, and
    # the slope's divisor det / s11 would be 0.
    design = DesignMatrix(np.array([0.0, 8.0]), np.array([0.0, 9.371365988562309e-159]))
    with pytest.raises(CollinearDesign):
        compute_design_stats(design)


def test_unrestricted_fit_with_tiny_x1_does_not_underflow():
    # y = -x1 + a * x2 exactly; s11 * <x2, y> = a**3 is below the smallest double.
    a = 2.3288848677721623e-141
    ds = Dataset(DesignMatrix(np.array([0.0, a]), np.array([1.0, 1.0])), np.array([a, 0.0]))
    stats = compute_design_stats(ds.design)
    p1, p2, _ = response_stats(ds)
    alpha_u, beta_u = solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)
    assert alpha_u == pytest.approx(-1.0, rel=1e-12)
    assert beta_u == pytest.approx(a, rel=1e-12, abs=0.0)
    assert R_AND_U.fit(ds)[0]["r"] == 0.0


def test_make_uniform_design_properties():
    rng = np.random.default_rng(3)
    design = make_uniform_design(2, rng)
    assert design.n == 2
    assert np.all(design.x1 == 1.0)
    assert np.all((design.x2 > 0.0) & (design.x2 < 3.0))
    bigger = make_uniform_design(50, rng)
    stats = compute_design_stats(bigger)
    assert stats.det > 0.0
    with pytest.raises(ValueError):
        make_uniform_design(1, rng)


def test_reference_design_matches_documented_seed():
    ref = load_reference_design()
    regen = make_uniform_design(50, stream(REFERENCE_DESIGN_SEED, 0, 0))
    assert np.array_equal(ref.x1, regen.x1)
    assert np.array_equal(ref.x2, regen.x2)
    assert ref.n == 50


def test_design_csv_roundtrip(tmp_path, rng):
    design = make_uniform_design(17, rng)
    path = tmp_path / "design.csv"
    write_design_csv(design, path)
    back = read_design_csv(path)
    assert np.array_equal(design.x1, back.x1)
    assert np.array_equal(design.x2, back.x2)
    header = path.read_text().splitlines()[0]
    assert header == "i,x1,x2"


def test_design_csv_skips_blank_rows_and_refuses_short_ones(tmp_path, rng):
    design = make_uniform_design(5, rng)
    path = tmp_path / "design.csv"
    write_design_csv(design, path)
    text = path.read_text()
    path.write_text(text.replace("\n", "\n\n", 1) + "\n")  # blank line 2 and a trailing one
    back = read_design_csv(path)
    assert np.array_equal(design.x1, back.x1)
    assert np.array_equal(design.x2, back.x2)
    for bad in ("51,1.0", "51,1.0,2.0,3.0"):
        path.write_text(text + bad + "\n")
        with pytest.raises(ValueError, match="design.csv, line 7: expected 3 fields"):
            read_design_csv(path)
    path.write_text(text + "51,1.0,abc\n")
    with pytest.raises(ValueError, match="design.csv, line 7: non-numeric field"):
        read_design_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="design.csv: empty file"):
        read_design_csv(path)
    path.write_text(text.replace("i,x1,x2", "i,x2,x1", 1))
    with pytest.raises(ValueError, match="design.csv: unexpected design CSV header"):
        read_design_csv(path)
