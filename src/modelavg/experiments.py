"""Monte Carlo harness: risk curves, KS-ratio curves, resampling-accuracy curves,
and the asymptotic sweeps for the risk bound and the adaptive weight decay.

Replication noise is drawn from substreams keyed by (seed, role, grid index),
so every output is a deterministic function of its configuration and is
independent of worker scheduling. Within one grid point all estimators share
the same simulated responses (common random numbers), so curve differences
reflect the estimators rather than the noise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import TooManySingularResamples
from .estimators import Pipeline, estimate_arrays
from .model import (
    Dataset,
    DesignMatrix,
    DesignStats,
    TrueParams,
    compute_design_stats,
    generate_response,
    make_uniform_design,
)
from .resampling import (
    EmpiricalSample,
    ResamplePlan,
    centered_replicates,
    resampled_estimates,
)
from .weights import AdaptiveConfig, PretestConfig, default_tuning

# Substream roles.
_TAG_DESIGN = 0
_TAG_TRUTH = 1
_TAG_DATASET = 2
_TAG_RESAMPLE = 3


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream for a (seed, role, index...) work item."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


@dataclass(frozen=True)
class Scenario:
    """A frozen design plus everything needed to replicate one experiment cell."""

    design: DesignMatrix
    params: TrueParams
    pretest: PretestConfig
    adaptive: AdaptiveConfig
    reps: int
    seed: int
    prior_scale: float = 1.0
    prior_p_r: float = 0.5

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


def _responses_in_place(design: DesignMatrix, params: TrueParams, z: np.ndarray) -> np.ndarray:
    """Turn a (reps, n) noise block into the responses alpha*x1 + beta*x2 + sigma*z.

    Works in ``z``'s own buffer, so no further (reps, n) array is allocated.
    The floats equal those of the out-of-place formula, since IEEE addition
    and multiplication are commutative (signed zeros at sigma = 0 included).
    """
    z *= params.sigma
    z += params.alpha * design.x1 + params.beta * design.x2
    return z


def batch_estimates(
    design: DesignMatrix,
    stats: DesignStats,
    params: TrueParams,
    z: np.ndarray,
    names: Sequence[str],
    pretest: PretestConfig | None = None,
    adaptive: AdaptiveConfig | None = None,
    prior_scale: float = 1.0,
    prior_p_r: float = 0.5,
) -> dict[str, np.ndarray]:
    """Vectorized estimates over a (reps, n) block of standard-normal noise.

    Row r of ``z`` yields the response alpha*x1 + beta*x2 + sigma*z[r]; the
    returned arrays hold one estimate per row. ``z`` is overwritten with
    those responses. Matches the scalar pipeline to floating round-off.
    """
    y = _responses_in_place(design, params, z)
    # <y,y> is read only by the sigma = 0 limit of bma_exact.
    yy = np.einsum("ij,ij->i", y, y) if params.sigma == 0.0 else None
    estimates, _ = estimate_arrays(
        design.n, stats.s11, stats.s22, stats.s12, y @ design.x1, y @ design.x2, names,
        params.sigma, pretest, adaptive, prior_scale, prior_p_r, yy=yy,
    )
    return estimates


def mc_estimator_draws(
    scenario: Scenario, names: Sequence[str], grid_index: int = 0
) -> dict[str, np.ndarray]:
    """reps estimates per name from fresh responses on the frozen design."""
    stats = compute_design_stats(scenario.design, scenario.params.sigma)
    z = stream(scenario.seed, _TAG_TRUTH, grid_index).standard_normal(
        (scenario.reps, scenario.design.n)
    )
    return batch_estimates(
        scenario.design,
        stats,
        scenario.params,
        z,
        names,
        pretest=scenario.pretest,
        adaptive=scenario.adaptive,
        prior_scale=scenario.prior_scale,
        prior_p_r=scenario.prior_p_r,
    )


def mc_sampling_distribution(scenario: Scenario, estimator_name: str) -> EmpiricalSample:
    """Monte Carlo sample of sqrt(n) * (estimate - alpha) for one estimator."""
    draws = mc_estimator_draws(scenario, (estimator_name,))[estimator_name]
    root_n = np.sqrt(scenario.design.n)
    return EmpiricalSample(root_n * (draws - scenario.params.alpha))


def draw_dataset(scenario: Scenario, grid_index: int = 0, dataset_index: int = 0) -> Dataset:
    """One simulated dataset from the stream a curve cell would use."""
    rng = stream(scenario.seed, _TAG_DATASET, grid_index, dataset_index)
    return generate_response(scenario.design, scenario.params, rng)


def _ks_arrays(x: np.ndarray, y: np.ndarray) -> float:
    """Exact two-sample KS distance sup_t |F_x(t) - F_y(t)|.

    Between consecutive points of the smaller sample its ECDF is constant and
    the larger one's only rises, so the distance peaks at a point of the
    smaller sample: at the right values there or at the left limits. Counting
    into the larger sorted sample at those points alone gives the same counts,
    and so the same floats, as evaluating both ECDFs on the merged samples.
    """
    small, large = (x, y) if x.size <= y.size else (y, x)
    s = np.sort(small)
    big = np.sort(large)
    sup = 0.0
    for side in ("right", "left"):
        f_small = np.searchsorted(s, s, side=side) / s.size
        f_large = np.searchsorted(big, s, side=side) / big.size
        sup = max(sup, float(np.max(np.abs(f_small - f_large))))
    return sup


def ks_two_sample(a: EmpiricalSample, b: EmpiricalSample) -> float:
    """Exact sup-distance between two empirical CDFs (see :func:`_ks_arrays`)."""
    return _ks_arrays(a.values, b.values)


def _ks_ratio(ks_r: float, ks_u: float) -> float:
    total = ks_r + ks_u
    if total == 0.0:
        # Both references coincide with the sample; the location is uninformative.
        return 50.0
    return 100.0 * (ks_r / total)


def _map_ordered(
    fn: Callable[[int], dict],
    count: int,
    workers: int,
    cost: Sequence[float] | None = None,
) -> list[dict]:
    """``[fn(0), ..., fn(count - 1)]``, computed on ``workers`` threads.

    Given a per-item ``cost``, the pool receives the items costliest first
    (ties in index order), so the largest item does not start last and run
    alone. Results come back in index order either way.
    """
    if workers > 1:
        order = range(count) if cost is None else sorted(range(count), key=lambda i: -cost[i])
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(fn, i) for i in order}
            return [futures[i].result() for i in range(count)]
    return [fn(i) for i in range(count)]


def mse_curve(
    beta_grid: Sequence[float], scenario: Scenario, workers: int = 1
) -> list[dict]:
    """Mean squared error of MS, BIC-weighted BMA, AMA and U-only along a beta grid."""
    beta_grid = list(beta_grid)
    if not beta_grid:
        raise ValueError("beta grid must be non-empty")

    def one(i: int) -> dict:
        cell = replace(scenario, params=replace(scenario.params, beta=beta_grid[i]))
        draws = mc_estimator_draws(cell, ("ms", "bma_bic", "ama", "u"), grid_index=i)
        alpha = scenario.params.alpha
        row = {"beta": beta_grid[i]}
        for name in ("ms", "bma_bic", "ama", "u"):
            row[f"mse_{name}"] = float(np.mean((draws[name] - alpha) ** 2))
        row["reps"] = scenario.reps
        row["seed"] = scenario.seed
        return row

    return _map_ordered(one, len(beta_grid), workers)


def ks_ratio_curve(
    beta_grid: Sequence[float], scenario: Scenario, workers: int = 1
) -> list[dict]:
    """Where each estimator's sampling distribution sits between R and U.

    Per grid point the R and U reference samples come from the same
    replications as the estimator samples; the ratio is
    100 * KS(j, R) / (KS(j, R) + KS(j, U)), with 0/0 mapped to 50.
    """
    beta_grid = list(beta_grid)
    if not beta_grid:
        raise ValueError("beta grid must be non-empty")

    def one(i: int) -> dict:
        cell = replace(scenario, params=replace(scenario.params, beta=beta_grid[i]))
        draws = mc_estimator_draws(
            cell, ("r", "u", "ms", "bma_bic", "ama"), grid_index=i
        )
        root_n = np.sqrt(scenario.design.n)
        alpha = scenario.params.alpha
        centered = {k: root_n * (v - alpha) for k, v in draws.items()}
        row = {"beta": beta_grid[i]}
        ks_vals = {}
        for name, col in (("ms", "ms"), ("bma_bic", "bma"), ("ama", "ama")):
            ks_r = _ks_arrays(centered[name], centered["r"])
            ks_u = _ks_arrays(centered[name], centered["u"])
            ks_vals[col] = (ks_r, ks_u)
            row[f"ratio_{name}"] = _ks_ratio(ks_r, ks_u)
        for col in ("ms", "bma", "ama"):
            row[f"ks_{col}_r"], row[f"ks_{col}_u"] = ks_vals[col]
        row["reps"] = scenario.reps
        row["seed"] = scenario.seed
        return row

    return _map_ordered(one, len(beta_grid), workers)


def resampling_error_curve(
    beta_grid: Sequence[float],
    scenario: Scenario,
    method: str,
    datasets_per_beta: int,
    b: int,
    m: int | None = None,
    mode: str = "per_dataset",
    workers: int = 1,
    max_redraws: int | None = None,
) -> list[dict]:
    """Accuracy of bootstrap/subsampling approximations along a beta grid.

    Per grid point: a Monte Carlo truth sample of sqrt(n) * (estimate - alpha)
    per estimator, then ``datasets_per_beta`` independent datasets, each
    resampled ``b`` times. ``mode="per_dataset"`` reports 100 x the mean KS
    distance between truth and each dataset's resampling distribution;
    ``mode="pooled"`` pools all resample replicates per grid point before one
    KS evaluation. Datasets whose resampling exhausts the redraw budget are
    excluded and counted.
    """
    if method not in ("bootstrap", "subsample"):
        raise ValueError(f"method must be 'bootstrap' or 'subsample', got {method!r}")
    if mode not in ("per_dataset", "pooled"):
        raise ValueError(f"mode must be 'per_dataset' or 'pooled', got {mode!r}")
    if datasets_per_beta < 1:
        raise ValueError("datasets_per_beta must be >= 1")
    beta_grid = list(beta_grid)
    if not beta_grid:
        raise ValueError("beta grid must be non-empty")
    subsample = method == "subsample"
    if subsample:
        if m is None:
            raise ValueError("subsampling needs a subsample size m")
        if not 1 <= m <= scenario.design.n:
            raise ValueError(f"m={m} must lie in [1, n={scenario.design.n}]")
    names = ("ms", "bma_bic", "ama")
    pipeline = Pipeline(
        names, scenario.params.sigma, scenario.pretest, scenario.adaptive,
        scenario.prior_scale, scenario.prior_p_r,
    )
    plan = ResamplePlan(b=b, m=m if subsample else None, max_redraws=max_redraws)

    def one(i: int) -> dict:
        beta = beta_grid[i]
        cell = replace(scenario, params=replace(scenario.params, beta=beta))
        draws = mc_estimator_draws(cell, names, grid_index=i)
        root_n = np.sqrt(scenario.design.n)
        alpha = scenario.params.alpha
        truth = {k: root_n * (v - alpha) for k, v in draws.items()}
        per_dataset = {k: [] for k in names}
        pooled = {k: [] for k in names}
        excluded = 0
        for d in range(datasets_per_beta):
            ds = generate_response(
                scenario.design, cell.params, stream(scenario.seed, _TAG_DATASET, i, d)
            )
            try:
                star = resampled_estimates(
                    ds, pipeline, plan, stream(scenario.seed, _TAG_RESAMPLE, i, d), subsample
                )
            except TooManySingularResamples:
                excluded += 1
                continue
            samples = centered_replicates(ds, pipeline, star, plan, subsample)
            for k in names:
                if mode == "per_dataset":
                    per_dataset[k].append(_ks_arrays(truth[k], samples[k]))
                else:
                    pooled[k].append(samples[k])
        included = datasets_per_beta - excluded
        if included == 0:
            raise TooManySingularResamples(
                f"all {datasets_per_beta} datasets at beta={beta} were excluded"
            )
        row = {"beta": beta}
        for k in names:
            if mode == "per_dataset":
                err = float(np.mean(per_dataset[k]))
            else:
                err = _ks_arrays(truth[k], np.concatenate(pooled[k]))
            row[f"err_{k}"] = 100.0 * err
        row["datasets"] = included
        row["b"] = b
        row["excluded"] = excluded
        row["seed"] = scenario.seed
        return row

    return _map_ordered(one, len(beta_grid), workers)


def risk_bound_sweep(
    params: TrueParams,
    n_grid: Sequence[int],
    reps: int,
    seed: int,
    prior_scale: float = 1.0,
    prior_p_r: float = 0.5,
    workers: int = 1,
) -> list[dict]:
    """Normalized risk n * E(estimate - alpha)^2 of the exact-posterior average.

    Each n gets a freshly frozen intercept-plus-Uniform(0,3) design, so the
    non-vanishing x1'x2/n correlation that makes the problem non-trivial holds
    by construction. The Monte Carlo standard error of each point is reported.
    """
    n_grid = list(n_grid)
    if not n_grid:
        raise ValueError("n grid must be non-empty")

    def one(i: int) -> dict:
        n = n_grid[i]
        design = make_uniform_design(n, stream(seed, _TAG_DESIGN, i))
        stats = compute_design_stats(design, params.sigma)
        z = stream(seed, _TAG_TRUTH, i).standard_normal((reps, n))
        draws = batch_estimates(
            design, stats, params, z, ("bma_exact",),
            prior_scale=prior_scale, prior_p_r=prior_p_r,
        )["bma_exact"]
        sq = (draws - params.alpha) ** 2
        mc_se = float(n * np.std(sq, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
        return {
            "n": n,
            "n_risk": float(n * np.mean(sq)),
            "mc_se": mc_se,
            "reps": reps,
            "seed": seed,
        }

    return _map_ordered(one, len(n_grid), workers, cost=n_grid)


def weight_decay_sweep(
    params: TrueParams,
    n_grid: Sequence[int],
    reps: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Monte Carlo means of the adaptive weight and its sqrt(n)-scaled version.

    Tuning follows :func:`default_tuning` at each n; designs are re-frozen per n
    exactly as in :func:`risk_bound_sweep`.
    """
    n_grid = list(n_grid)
    if not n_grid:
        raise ValueError("n grid must be non-empty")

    def one(i: int) -> dict:
        n = n_grid[i]
        design = make_uniform_design(n, stream(seed, _TAG_DESIGN, i))
        stats = compute_design_stats(design, params.sigma)
        tuning = default_tuning(n)
        y = _responses_in_place(
            design, params, stream(seed, _TAG_TRUTH, i).standard_normal((reps, n))
        )
        p_r = estimate_arrays(
            n, stats.s11, stats.s22, stats.s12, y @ design.x1, y @ design.x2, ("ama",),
            params.sigma, adaptive_config=tuning,
        )[1]["ama"]
        mean_p = float(np.mean(p_r))
        return {
            "n": n,
            "mean_p_r": mean_p,
            "mean_sqrtn_p_r": float(np.sqrt(n) * mean_p),
            "reps": reps,
            "seed": seed,
        }

    return _map_ordered(one, len(n_grid), workers, cost=n_grid)


def make_scenario(
    n: int,
    seed: int,
    reps: int,
    alpha: float = 1.0,
    beta: float = 0.0,
    sigma: float = 1.0,
    c: float | None = None,
    a_n: float | None = None,
    k_n: float | None = None,
    pretest_form: str = "t",
    prior_scale: float = 1.0,
    prior_p_r: float = 0.5,
) -> Scenario:
    """Scenario with a frozen uniform design and default tuning for its n."""
    design = make_uniform_design(n, stream(seed, _TAG_DESIGN, 0))
    tuning = default_tuning(n)
    if a_n is not None or k_n is not None:
        tuning = AdaptiveConfig(
            a_n=a_n if a_n is not None else tuning.a_n,
            k_n=k_n if k_n is not None else tuning.k_n,
        )
    pretest = PretestConfig(
        c=c if c is not None else PretestConfig().c,
        form=pretest_form,
        n=n if pretest_form == "scaled" else None,
    )
    return Scenario(
        design=design,
        params=TrueParams(alpha=alpha, beta=beta, sigma=sigma),
        pretest=pretest,
        adaptive=tuning,
        reps=reps,
        seed=seed,
        prior_scale=prior_scale,
        prior_p_r=prior_p_r,
    )
