"""Monte Carlo harness: risk curves, KS-ratio curves, resampling-accuracy curves,
and the asymptotic sweeps for the risk bound and the adaptive weight decay.

Replication noise is drawn from substreams keyed by (seed, role, grid index),
so every output is a deterministic function of its configuration and is
independent of worker scheduling. Within one grid point all estimators share
the same simulated responses (common random numbers), so curve differences
reflect the estimators rather than the noise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import TooManySingularResamples
from .estimators import Pipeline
from .model import (
    Dataset,
    DesignMatrix,
    DesignStats,
    TrueParams,
    compute_design_stats,
    generate_response,
    make_uniform_design,
    responses_in_place,
)
from .resampling import ResamplePlan, resampled_estimates
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

    def pipeline(self, names: Sequence[str]) -> Pipeline:
        """The estimators ``names`` with this scenario's kernel settings."""
        return Pipeline(
            names, self.params.sigma, self.pretest, self.adaptive,
            self.prior_scale, self.prior_p_r,
        )


def batch_estimates(
    design: DesignMatrix,
    stats: DesignStats,
    params: TrueParams,
    z: np.ndarray,
    pipeline: Pipeline,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Vectorized estimates over a (reps, n) block of standard-normal noise.

    Row r of ``z`` yields the response alpha*x1 + beta*x2 + sigma*z[r]. Returns
    the kernel's pair: one estimate per row for each name, and one weight on R
    per row for each averaging rule among them. ``z`` is overwritten with the
    responses. Matches the scalar pipeline to floating round-off.
    """
    y = responses_in_place(design, params, z)
    # <y,y> is read only by the sigma = 0 limit of bma_exact.
    yy = np.einsum("ij,ij->i", y, y) if params.sigma == 0.0 else None
    return pipeline.kernel(
        design.n, stats.s11, stats.s22, stats.s12, y @ design.x1, y @ design.x2, yy
    )


def mc_estimator_draws(
    scenario: Scenario, names: Sequence[str], grid_index: int = 0
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The kernel's pair over reps fresh responses on the frozen design.

    Returns reps estimates per name and reps weights on R per averaging rule.
    """
    stats = compute_design_stats(scenario.design)
    z = stream(scenario.seed, _TAG_TRUTH, grid_index).standard_normal(
        (scenario.reps, scenario.design.n)
    )
    return batch_estimates(scenario.design, stats, scenario.params, z, scenario.pipeline(names))


def _centered_draws(
    scenario: Scenario, names: Sequence[str], grid_index: int
) -> dict[str, np.ndarray]:
    """sqrt(n) * (estimate - alpha) per name, from :func:`mc_estimator_draws`."""
    draws = mc_estimator_draws(scenario, names, grid_index=grid_index)[0]
    root_n = np.sqrt(scenario.design.n)
    return {k: root_n * (v - scenario.params.alpha) for k, v in draws.items()}


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


def _ks_ratio(ks_r: float, ks_u: float) -> float:
    total = ks_r + ks_u
    if total == 0.0:
        # Both references coincide with the sample; the location is uninformative.
        return 50.0
    return 100.0 * (ks_r / total)


def _grid(
    cells: Sequence[tuple[dict, Scenario]],
    workers: int,
    row: Callable[[int, Scenario], dict],
) -> list[dict]:
    """One CSV row per cell ``(lead, scenario)``: the ``lead`` columns, the
    columns ``row(i, scenario)`` returns, then ``seed``; ``i`` keys cell i's substreams.

    On ``workers`` threads the pool gets the largest designs first (ties in
    grid order), so the largest does not start last and run alone, and the
    first failure or an interrupt cancels every cell not yet started.
    """
    if not cells:
        raise ValueError("grid must be non-empty")

    def one(i: int) -> dict:
        lead, cell = cells[i]
        return {**lead, **row(i, cell), "seed": cell.seed}

    if workers <= 1:
        return [one(i) for i in range(len(cells))]
    order = sorted(range(len(cells)), key=lambda i: -cells[i][1].design.n)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(one, i) for i in order}
        try:
            for future in as_completed(futures.values()):
                future.result()  # the first failure ends the loop
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [futures[i].result() for i in range(len(cells))]


def _beta_cells(beta_grid: Sequence[float], scenario: Scenario) -> list[tuple[dict, Scenario]]:
    """``scenario`` with beta set to each grid value, led by a ``beta`` column."""
    return [
        ({"beta": beta}, replace(scenario, params=replace(scenario.params, beta=beta)))
        for beta in beta_grid
    ]


def _n_cells(n_grid: Sequence[int], scenario: Scenario) -> list[tuple[dict, Scenario]]:
    """``scenario`` at each n, led by an ``n`` column: a design freshly frozen from
    grid point i's substream, the default pretest and :func:`default_tuning` at n."""
    return [
        ({"n": n}, replace(
            scenario, design=make_uniform_design(n, stream(scenario.seed, _TAG_DESIGN, i)),
            pretest=PretestConfig(), adaptive=default_tuning(n),
        ))
        for i, n in enumerate(n_grid)
    ]


def mse_curve(
    beta_grid: Sequence[float], scenario: Scenario, workers: int = 1
) -> list[dict]:
    """Mean squared error of MS, BIC-weighted BMA, AMA and U-only along a beta grid."""
    names = ("ms", "bma_bic", "ama", "u")

    def row(i: int, cell: Scenario) -> dict:
        draws = mc_estimator_draws(cell, names, grid_index=i)[0]
        mse = {f"mse_{k}": float(np.mean((draws[k] - cell.params.alpha) ** 2)) for k in names}
        return {**mse, "reps": cell.reps}

    return _grid(_beta_cells(beta_grid, scenario), workers, row)


def ks_ratio_curve(
    beta_grid: Sequence[float], scenario: Scenario, workers: int = 1
) -> list[dict]:
    """Where each estimator's sampling distribution sits between R and U.

    Per grid point the R and U reference samples come from the same
    replications as the estimator samples; the ratio is
    100 * KS(j, R) / (KS(j, R) + KS(j, U)), with 0/0 mapped to 50.
    """

    def row(i: int, cell: Scenario) -> dict:
        centered = _centered_draws(cell, ("r", "u", "ms", "bma_bic", "ama"), i)
        ratios, distances = {}, {}
        for name, col in (("ms", "ms"), ("bma_bic", "bma"), ("ama", "ama")):
            ks_r = _ks_arrays(centered[name], centered["r"])
            ks_u = _ks_arrays(centered[name], centered["u"])
            ratios[f"ratio_{name}"] = _ks_ratio(ks_r, ks_u)
            distances[f"ks_{col}_r"], distances[f"ks_{col}_u"] = ks_r, ks_u
        return {**ratios, **distances, "reps": cell.reps}

    return _grid(_beta_cells(beta_grid, scenario), workers, row)


def resampling_error_curve(
    beta_grid: Sequence[float],
    scenario: Scenario,
    plan: ResamplePlan,
    datasets_per_beta: int,
    mode: str = "per_dataset",
    workers: int = 1,
) -> list[dict]:
    """Accuracy of bootstrap/subsampling approximations along a beta grid.

    ``plan`` names the scheme (bootstrap without ``m``, subsampling with it);
    an ``m`` above n is refused before any truth sample. Per grid point: a
    Monte Carlo truth sample of sqrt(n) * (estimate - alpha) per estimator,
    then ``datasets_per_beta`` datasets, each turned into ``plan.b`` centred
    replicates by :func:`resampled_estimates`. ``mode="per_dataset"`` reports
    100 x the mean KS distance between truth and each dataset's replicates;
    ``mode="pooled"`` pools all replicates per grid point before one KS
    evaluation. Datasets whose resampling exhausts the plan's redraw budget
    are excluded and counted.
    """
    if mode not in ("per_dataset", "pooled"):
        raise ValueError(f"mode must be 'per_dataset' or 'pooled', got {mode!r}")
    if datasets_per_beta < 1:
        raise ValueError("datasets_per_beta must be >= 1")
    plan.size(scenario.design.n)
    names = ("ms", "bma_bic", "ama")

    def row(i: int, cell: Scenario) -> dict:
        truth = _centered_draws(cell, names, i)
        pipeline = cell.pipeline(names)
        per_dataset = {k: [] for k in names}
        pooled = {k: [] for k in names}
        excluded = 0
        for d in range(datasets_per_beta):
            ds = draw_dataset(cell, i, d)
            try:
                samples = resampled_estimates(
                    ds, pipeline, plan, stream(cell.seed, _TAG_RESAMPLE, i, d)
                )
            except TooManySingularResamples:
                excluded += 1
                continue
            for k in names:
                if mode == "per_dataset":
                    per_dataset[k].append(_ks_arrays(truth[k], samples[k]))
                else:
                    pooled[k].append(samples[k])
        included = datasets_per_beta - excluded
        if included == 0:
            raise TooManySingularResamples(
                f"all {datasets_per_beta} datasets at beta={cell.params.beta} were excluded"
            )
        errors = {}
        for k in names:
            if mode == "per_dataset":
                err = float(np.mean(per_dataset[k]))
            else:
                err = _ks_arrays(truth[k], np.concatenate(pooled[k]))
            errors[f"err_{k}"] = 100.0 * err
        return {**errors, "datasets": included, "b": plan.b, "excluded": excluded}

    return _grid(_beta_cells(beta_grid, scenario), workers, row)


def risk_bound_sweep(
    n_grid: Sequence[int], scenario: Scenario, workers: int = 1
) -> list[dict]:
    """Normalized risk n * E(estimate - alpha)^2 of the exact-posterior average.

    Each n runs ``scenario``'s params, reps, seed and prior on a freshly frozen
    intercept-plus-Uniform(0,3) design, so the non-vanishing x1'x2/n
    correlation that makes the problem non-trivial holds by construction. The
    Monte Carlo standard error of each point is reported.
    """

    def row(i: int, cell: Scenario) -> dict:
        n, reps = cell.design.n, cell.reps
        draws = mc_estimator_draws(cell, ("bma_exact",), i)[0]["bma_exact"]
        sq = (draws - cell.params.alpha) ** 2
        mc_se = float(n * np.std(sq, ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
        return {"n_risk": float(n * np.mean(sq)), "mc_se": mc_se, "reps": reps}

    return _grid(_n_cells(n_grid, scenario), workers, row)


def weight_decay_sweep(
    n_grid: Sequence[int], scenario: Scenario, workers: int = 1
) -> list[dict]:
    """Monte Carlo means of the adaptive weight and its sqrt(n)-scaled version.

    Tuning follows :func:`default_tuning` at each n; designs are re-frozen per n
    exactly as in :func:`risk_bound_sweep`.
    """

    def row(i: int, cell: Scenario) -> dict:
        mean_p = float(np.mean(mc_estimator_draws(cell, ("ama",), i)[1]["ama"]))
        root_n = np.sqrt(cell.design.n)
        return {"mean_p_r": mean_p, "mean_sqrtn_p_r": float(root_n * mean_p), "reps": cell.reps}

    return _grid(_n_cells(n_grid, scenario), workers, row)


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
