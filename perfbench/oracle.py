"""Independent numpy reference values for the benchmark's correctness gate.

Nothing here imports ``modelavg``. The estimators are written out again from
their definitions (closed-form least squares, Gaussian marginal likelihoods
through the 2 x 2 Gram matrix, the BIC weight from residual sums of squares
obtained as ``y'y - p'b``), so a defect in the program does not carry over.

Two kinds of reference are produced:

* ``mc_curves`` values replay the program's Monte Carlo substreams, keyed
  ``SeedSequence(seed, spawn_key=(role, grid index))``. They do not depend on
  how resamples are drawn, so the program must match them to round-off.
* Resampling values (figure2 errors, replicate quantiles) use the oracle's own
  random streams. They are compared within a multiple of their Monte Carlo
  standard error, so a declared change of the program's resample stream
  layout still passes while a broken engine does not.
"""

from __future__ import annotations

import math

import numpy as np

ALPHA = 1.0
SIGMA = 1.0
PRETEST_C = math.sqrt(2.0)
MC_BETA = 0.5  # CLI default beta for the risk-bound and weight-decay sweeps
MC_BETA_GRID = tuple(float(v) for v in np.linspace(-1.0, 1.0, 41))
FIGURE2_BETA_GRID = tuple(float(v) for v in np.linspace(-0.4, 0.4, 17))
N_GRID = (25, 50, 100, 200, 400, 800)

# Substream roles of the program's Monte Carlo layout.
ROLE_DESIGN = 0
ROLE_TRUTH = 1


def substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def uniform_design(seed: int, index: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Intercept plus Uniform(0, 3) column, drawn from the design substream."""
    x2 = substream(seed, ROLE_DESIGN, index).uniform(0.0, 3.0, size=n)
    return np.ones(n), x2


def default_tuning(n: int) -> tuple[float, float]:
    return math.log(n) ** 2, math.sqrt(math.log(n) / n)


def sigmoid(t):
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def adaptive_weight(beta_u, a_n: float, k_n: float):
    with np.errstate(over="ignore"):
        return 0.5 * sigmoid(-a_n * beta_u * (beta_u - k_n)) + 0.5 * sigmoid(
            -a_n * beta_u * (beta_u + k_n)
        )


def estimates(x1, x2, y, a_n: float, k_n: float, sigma: float = SIGMA) -> dict:
    """Every estimator of alpha, vectorised over all axes but the last (rows).

    The pretest uses the t-form with c = sqrt(2); the exact posterior uses unit
    prior scale and equal prior model probabilities; the BIC weight uses the
    number of rows actually fitted.
    """
    n = y.shape[-1]
    s11 = np.sum(x1 * x1, axis=-1)
    s22 = np.sum(x2 * x2, axis=-1)
    s12 = np.sum(x1 * x2, axis=-1)
    p1 = np.sum(x1 * y, axis=-1)
    p2 = np.sum(x2 * y, axis=-1)
    yy = np.sum(y * y, axis=-1)
    det = s11 * s22 - s12 * s12
    alpha_r = p1 / s11
    alpha_u = (s22 * p1 - s12 * p2) / det
    beta_u = (s11 * p2 - s12 * p1) / det

    def average(p_r):
        value = alpha_u + p_r * (alpha_r - alpha_u)
        return np.clip(value, np.minimum(alpha_r, alpha_u), np.maximum(alpha_r, alpha_u))

    sigma_beta = sigma * np.sqrt(s11 / det)
    ms = np.where(np.abs(beta_u) > PRETEST_C * sigma_beta, alpha_u, alpha_r)

    rss_r = yy - alpha_r * p1
    rss_u = yy - (alpha_u * p1 + beta_u * p2)
    bic = average(sigmoid((rss_u - rss_r + math.log(n)) / 2.0))

    # y ~ N(0, sigma^2 I + X X') under U and N(0, sigma^2 I + x1 x1') under R.
    lam = sigma * sigma
    g11, g22 = lam + s11, lam + s22
    gdet = g11 * g22 - s12 * s12
    fit_u = (g22 * p1 * p1 - 2.0 * s12 * p1 * p2 + g11 * p2 * p2) / gdet
    fit_r = p1 * p1 / g11
    logdet_u = np.log(gdet / (lam * lam))
    logdet_r = np.log(g11 / lam)
    log_odds = 0.5 * (logdet_u - logdet_r) - 0.5 * (fit_u - fit_r) / lam
    exact = average(sigmoid(log_odds))

    ama = average(adaptive_weight(beta_u, a_n, k_n))
    return {"r": alpha_r, "u": alpha_u, "ms": ms, "bma_exact": exact, "bma_bic": bic, "ama": ama}


def ks_distance(a, b) -> float:
    """Sup distance between the empirical CDFs of two samples."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_ratio(ks_r: float, ks_u: float) -> float:
    total = ks_r + ks_u
    return 50.0 if total == 0.0 else 100.0 * ks_r / total


# --- Monte Carlo curves (replayed streams, matched to round-off) -------------


def mse_rows(seed: int, reps: int, n: int = 50) -> list[dict]:
    x1, x2 = uniform_design(seed, 0, n)
    a_n, k_n = default_tuning(n)
    rows = []
    for i, beta in enumerate(MC_BETA_GRID):
        z = substream(seed, ROLE_TRUTH, i).standard_normal((reps, n))
        est = estimates(x1, x2, ALPHA * x1 + beta * x2 + SIGMA * z, a_n, k_n)
        row = {"beta": beta}
        for name in ("ms", "bma_bic", "ama", "u"):
            row[f"mse_{name}"] = float(np.mean((est[name] - ALPHA) ** 2))
        rows.append(row)
    return rows


def ks_ratio_rows(seed: int, reps: int, n: int = 50) -> list[dict]:
    x1, x2 = uniform_design(seed, 0, n)
    a_n, k_n = default_tuning(n)
    rows = []
    for i, beta in enumerate(MC_BETA_GRID):
        z = substream(seed, ROLE_TRUTH, i).standard_normal((reps, n))
        est = estimates(x1, x2, ALPHA * x1 + beta * x2 + SIGMA * z, a_n, k_n)
        centred = {k: math.sqrt(n) * (v - ALPHA) for k, v in est.items()}
        row = {"beta": beta}
        for name, col in (("ms", "ms"), ("bma_bic", "bma"), ("ama", "ama")):
            row[f"ks_{col}_r"] = ks_distance(centred[name], centred["r"])
            row[f"ks_{col}_u"] = ks_distance(centred[name], centred["u"])
        rows.append(row)
    return rows


def _sweep_draws(seed: int, reps: int, i: int, n: int):
    x1, x2 = uniform_design(seed, i, n)
    z = substream(seed, ROLE_TRUTH, i).standard_normal((reps, n))
    return x1, x2, ALPHA * x1 + MC_BETA * x2 + SIGMA * z


def risk_bound_rows(seed: int, reps: int) -> list[dict]:
    rows = []
    for i, n in enumerate(N_GRID):
        x1, x2, y = _sweep_draws(seed, reps, i, n)
        a_n, k_n = default_tuning(n)
        sq = (estimates(x1, x2, y, a_n, k_n)["bma_exact"] - ALPHA) ** 2
        rows.append({
            "n": n,
            "n_risk": float(n * np.mean(sq)),
            "mc_se": float(n * np.std(sq, ddof=1) / math.sqrt(reps)),
        })
    return rows


def weight_decay_rows(seed: int, reps: int) -> list[dict]:
    rows = []
    for i, n in enumerate(N_GRID):
        x1, x2, y = _sweep_draws(seed, reps, i, n)
        s11, s22, s12 = x1 @ x1, x2 @ x2, x1 @ x2
        beta_u = (s11 * (y @ x2) - s12 * (y @ x1)) / (s11 * s22 - s12 * s12)
        mean_p = float(np.mean(adaptive_weight(beta_u, *default_tuning(n))))
        rows.append({"n": n, "mean_p_r": mean_p, "mean_sqrtn_p_r": math.sqrt(n) * mean_p})
    return rows


# --- Resampling references (own streams, compared within MC error) ----------

FIGURE2_NAMES = ("ms", "bma_bic", "ama")


def resample_indices(rng, shape, n: int, m: int | None):
    """Bootstrap (m is None) or without-replacement size-m index blocks."""
    if m is None:
        return rng.integers(0, n, size=shape + (n,))
    return np.argsort(rng.random(shape + (n,)), axis=-1)[..., :m]


def resampling_error(
    x2, beta: float, m: int | None, datasets: int, b: int, reps: int, rng,
    truths: int = 8, chunk: int = 10,
) -> dict:
    """Per estimator: 100 x mean KS(truth, resampling) and the spread of a rerun.

    ``sd_diff`` is the standard deviation of the difference between two
    independent runs with one truth sample each (the program's run and an
    oracle run). It combines the spread over datasets (data and resamples) with
    the spread over ``truths`` independent truth samples, which every dataset
    of a run shares.
    """
    n = x2.size
    x1 = np.ones(n)
    a_n, k_n = default_tuning(n)
    root_n = math.sqrt(n)
    scale = math.sqrt(m if m is not None else n)
    truth = []
    for _ in range(truths):
        z = rng.standard_normal((reps, n))
        est = estimates(x1, x2, ALPHA * x1 + beta * x2 + SIGMA * z, a_n, k_n)
        truth.append({k: root_n * (est[k] - ALPHA) for k in FIGURE2_NAMES})
    ks = {k: np.empty((truths, datasets)) for k in FIGURE2_NAMES}
    for start in range(0, datasets, chunk):
        count = min(chunk, datasets - start)
        y = ALPHA * x1 + beta * x2 + SIGMA * rng.standard_normal((count, n))
        orig = estimates(x1, x2, y, a_n, k_n)
        idx = resample_indices(rng, (count, b), n, m)
        star = estimates(x1[idx], x2[idx], np.take_along_axis(y[:, None, :], idx, axis=-1), a_n, k_n)
        for k in FIGURE2_NAMES:
            samples = scale * (star[k] - orig[k][:, None])
            for j, row in enumerate(samples):
                for t in range(truths):
                    ks[k][t, start + j] = ks_distance(truth[t][k], row)
    out = {}
    for k in FIGURE2_NAMES:
        v = 100.0 * ks[k]
        se_datasets = float(np.std(v.mean(axis=0), ddof=1) / math.sqrt(datasets))
        sd_truth = float(np.std(v.mean(axis=1), ddof=1))
        out[k] = {
            "err": float(np.mean(v)),
            "sd_diff": math.sqrt(2.0 * se_datasets**2 + (1.0 + 1.0 / truths) * sd_truth**2),
        }
    return out


def replicate_distribution(x1, x2, y, m: int | None, b: int, rng, a_n: float, k_n: float) -> dict:
    """Sorted scale * (theta_star - theta_hat) for every estimator, b replicates."""
    n = y.size
    orig = estimates(x1, x2, y, a_n, k_n)
    idx = resample_indices(rng, (b,), n, m)
    star = estimates(x1[idx], x2[idx], y[idx], a_n, k_n)
    scale = math.sqrt(m if m is not None else n)
    return {k: np.sort(scale * (star[k] - orig[k])) for k in star}


def mean_model_distribution(y, b: int, rng, a_n: float, k_n: float) -> np.ndarray:
    """Sorted null-reflecting mean-model bootstrap replicates, W = adaptive p_u."""
    n = y.size
    root_n = math.sqrt(n)
    ybar = float(np.mean(y))

    def weight_u(t):
        return 1.0 - adaptive_weight(np.asarray(t) / root_n, a_n, k_n)

    mu_hat = float(weight_u(root_n * ybar)) * ybar
    ybar_star = y[rng.integers(0, n, size=(b, n))].mean(axis=1)
    mu_star = weight_u(root_n * (ybar_star - ybar)) * ybar_star
    return np.sort(root_n * (mu_star - mu_hat))
