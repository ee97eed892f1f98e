"""Monte Carlo harness: risk curves, KS-ratio curves, resampling-accuracy curves,
and the asymptotic sweeps for the risk bound and the adaptive weight decay.

Replication noise is drawn from substreams keyed by (seed, role, grid index),
so every output is a deterministic function of its configuration and is
independent of worker scheduling. Within one grid point all estimators share
the same simulated responses (common random numbers), so curve differences
reflect the estimators rather than the noise. A cell's noise is drawn in
row blocks of about 256 KiB, each reduced at once to the per-response
products the kernel reads, so memory does not grow with reps * n. A bounded
memo keeps each drawn cell's products, so the experiments of one process that
read the same cell draw it once. ``EXPERIMENTS`` is the table of CLI
experiments, and ``LEGEND`` the label and line style of each plotted column.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import TooManySingularResamples
from .estimators import ESTIMATOR_NAMES, Pipeline
from .model import (
    Dataset,
    DesignMatrix,
    TrueParams,
    generate_response,
    make_uniform_design,
    response_stats,
    responses_in_place,
    solve_normal_equations,
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
    """A frozen design plus everything needed to replicate one experiment cell.
    Construction refuses reps below 1 and whatever a :class:`Pipeline` of every
    estimator refuses (a bad prior, no pretest or tuning), before any draw."""

    design: DesignMatrix
    params: TrueParams
    pretest: PretestConfig
    adaptive: AdaptiveConfig
    reps: int
    seed: int
    prior_scale: float = Pipeline.prior_scale
    prior_p_r: float = Pipeline.prior_p_r

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError(f"reps = {self.reps} must be >= 1")
        self.pipeline(ESTIMATOR_NAMES)

    def pipeline(self, names: Sequence[str]) -> Pipeline:
        """The estimators ``names`` with this scenario's kernel settings."""
        return Pipeline(
            names, self.params.sigma, self.pretest, self.adaptive,
            self.prior_scale, self.prior_p_r,
        )


# A Monte Carlo cell's noise is drawn about this many values at a time.
_BLOCK_VALUES = 1 << 15
# A figure2 engine call resamples about this many replicates per estimator.
_CALL_REPLICATES = 1 << 14


def block_rows(n: int) -> int:
    """Rows per noise block at n: about ``_BLOCK_VALUES`` values (256 KiB), at least one."""
    return max(1, _BLOCK_VALUES // n)


def _draw_products(scenario: Scenario, grid_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Per response of the cell's reps fresh ones: <x1,y> and <x2,y>, one (reps,) array each.

    The cell's one noise stream fills :func:`block_rows` rows at a time, in C order,
    so the blocks hold exactly the rows of one (reps, n) draw. einsum reduces each
    row in an order set by n alone: the floats depend on neither block size nor BLAS.
    """
    design, params, reps = scenario.design, scenario.params, scenario.reps
    rng = stream(scenario.seed, _TAG_TRUTH, grid_index)
    rows = block_rows(design.n)
    z = np.empty((min(rows, reps), design.n))
    p1, p2 = np.empty(reps), np.empty(reps)
    for start in range(0, reps, rows):
        block = z[: min(rows, reps - start)]
        y = responses_in_place(design, params, rng.standard_normal(out=block))
        part = slice(start, start + len(block))
        np.einsum("ij,j->i", y, design.x1, out=p1[part])
        np.einsum("ij,j->i", y, design.x2, out=p2[part])
    return p1, p2


# Each Monte Carlo cell drawn in this process: key -> (its read-only response
# products, their bytes), least recently used first, evicted past _MEMO_BYTES.
_MEMO_BYTES = 32 << 20
_memo: OrderedDict = OrderedDict()
_memo_used = 0
_memo_lock = threading.Lock()


def clear_memo() -> None:
    """Forget every cached Monte Carlo cell."""
    global _memo_used
    with _memo_lock:
        _memo.clear()
        _memo_used = 0


def mc_estimator_draws(
    scenario: Scenario, names: Sequence[str], grid_index: int = 0
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The kernel's pair over reps fresh responses on the frozen design.

    Response r is alpha*x1 + beta*x2 + sigma*z_r, with z_r row r of the
    cell's standard-normal noise. Returns one estimate per response for each
    name, and each name's weight on R (one per response; True for r, False
    for u). A cell drawn before in this process (the same seed, grid index,
    reps, design and params, bit for bit) reruns only the kernel on its
    products.
    """
    global _memo_used
    design, params = scenario.design, scenario.params
    stats = design.stats
    pipeline = scenario.pipeline(names)
    key = (scenario.seed, grid_index, scenario.reps, design.x1.tobytes(), design.x2.tobytes(),
           np.array([params.alpha, params.beta, params.sigma], float).tobytes())
    with _memo_lock:
        entry = _memo.get(key)
        if entry is not None:
            _memo.move_to_end(key)
    if entry is not None:
        products = entry[0]
    else:
        products = _draw_products(scenario, grid_index)
        for a in products:
            a.flags.writeable = False
        size = sum(a.nbytes for a in products)
        with _memo_lock:
            if size <= _MEMO_BYTES and key not in _memo:  # another thread may have drawn it
                _memo[key] = (products, size)
                _memo_used += size
            while _memo_used > _MEMO_BYTES:
                _, (_, evicted) = _memo.popitem(last=False)
                _memo_used -= evicted
    return pipeline.kernel(design.n, stats.s11, stats.s22, stats.s12, *products)


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


def _own_counts(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """At each value of the sorted rows ``s``: how many values of its row are
    <= it and < it, the index past its run of ties and the index where it starts.
    Rows with no tie at all skip the two accumulate passes and share one
    row of plain ranks, which broadcasts over them."""
    n = s.shape[-1]
    idx = np.arange(n)
    tie = s[..., 1:] == s[..., :-1]
    if not tie.any():
        return idx + 1, idx
    edge = np.zeros(s.shape[:-1] + (1,), bool)
    starts = np.where(np.concatenate([edge, tie], axis=-1), 0, idx)
    ends = np.where(np.concatenate([tie, edge], axis=-1), n, idx + 1)
    return (np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1],
            np.maximum.accumulate(starts, axis=-1))


def _ks_arrays(x: np.ndarray, rows: np.ndarray) -> float | np.ndarray:
    """Exact two-sample KS distance sup_t |F_x(t) - F_row(t)| for each row of ``rows``.

    A 1-D ``rows`` is one sample and gives a float; a 2-D block gives one
    float per row. A 2-D ``x`` is a stack of reference samples and gives the
    (len(x), len(rows)) table of every reference against every row: each row
    is sorted and counted against itself once, each reference sorted once.
    Between consecutive points of a row F_row is constant and
    F_x only rises, so |F_x - F_row| peaks at the right value of the lower
    point or the left limit at the upper one (before the first point F_row is
    0, after the last 1). So every plateau of the merged samples is bounded by
    one at a point of the row, with the same row count and an ``x`` count no
    closer; rounding i/n and subtracting are monotone, so counting into sorted
    ``x`` at the row's own points gives the floats of the merged-sample ECDFs,
    whichever sample is larger. A sample that holds nan or inf raises
    ValueError.
    """
    x, rows = np.asarray(x), np.asarray(rows)
    s = np.sort(rows.reshape(-1, rows.shape[-1]), axis=1)
    refs = np.sort(x.reshape(-1, x.shape[-1]), axis=1)
    # Sorted, nan is last and -inf first, so the ends decide finiteness.
    if not (np.isfinite(refs[:, [0, -1]]).all() and np.isfinite(s[:, [0, -1]]).all()):
        raise ValueError("KS distance needs finite samples; one holds nan or inf")
    own_le, own_lt = (c / s.shape[1] for c in _own_counts(s))
    sup = np.empty((len(refs), len(s)))
    for out, t in zip(sup, refs):
        # Counts of ``t`` <= each point, then < it: a second search only where
        # it ties t[count - 1], the largest value <= it (at count = 0 t's last,
        # above it).
        count = np.searchsorted(t, s, "right")
        tied = t[count - 1] == s
        np.max(np.abs(own_le - count / t.size), axis=-1, out=out)
        count[tied] = np.searchsorted(t, s[tied], "left")
        np.maximum(out, np.max(np.abs(own_lt - count / t.size), axis=-1), out=out)
    if x.ndim > 1:
        return sup
    return float(sup[0, 0]) if rows.ndim == 1 else sup[0]


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
    grid point i's substream and :func:`default_tuning` at n."""
    return [
        ({"n": n}, replace(
            scenario, design=make_uniform_design(n, stream(scenario.seed, _TAG_DESIGN, i)),
            adaptive=default_tuning(n),
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
    100 * KS(j, R) / (KS(j, R) + KS(j, U)), with 0/0 mapped to 50. A cell
    makes one KS call, the (R, U) stack against the (MS, BMA-BIC, AMA) stack,
    so each sample is sorted once; the distances are the one-pair floats.
    """
    names = ("ms", "bma_bic", "ama")

    def row(i: int, cell: Scenario) -> dict:
        c = _centered_draws(cell, ("r", "u", *names), i)
        table = _ks_arrays(np.stack([c["r"], c["u"]]), np.stack([c[k] for k in names]))
        ratios, distances = {}, {}
        for name, (ks_r, ks_u) in zip(names, table.T.tolist()):
            col = "bma" if name == "bma_bic" else name
            ratios[f"ratio_{name}"] = _ks_ratio(ks_r, ks_u)
            distances[f"ks_{col}_r"], distances[f"ks_{col}_u"] = ks_r, ks_u
        return {**ratios, **distances, "reps": cell.reps}

    return _grid(_beta_cells(beta_grid, scenario), workers, row)


def resampling_error_curve(
    beta_grid: Sequence[float],
    scenario: Scenario,
    plan: ResamplePlan,
    datasets_per_beta: int,
    workers: int = 1,
) -> list[dict]:
    """Accuracy of bootstrap/subsampling approximations along a beta grid.

    ``plan`` names the scheme (bootstrap without ``m``, subsampling with it);
    an ``m`` above n is refused before any truth sample. Per grid point: a
    Monte Carlo truth sample of sqrt(n) * (estimate - alpha) per estimator,
    then ``datasets_per_beta`` datasets, max(1, ``_CALL_REPLICATES`` // b)
    to a call of :func:`resampled_estimates` (32 at b = 500), which returns a
    (kept datasets, b) block of centred replicates per estimator. Each row
    reports 100 x the mean KS distance between truth and each kept dataset's
    replicates, one KS call per estimator on each call's block as returned.
    The rows do not depend on that budget: each dataset's replicates and
    distance are the floats a call on it alone gives. Datasets whose
    resampling exhausts the plan's redraw budget are excluded and counted.
    """
    if datasets_per_beta < 1:
        raise ValueError(f"datasets_per_beta = {datasets_per_beta} must be >= 1")
    plan.size(scenario.design.n)
    names = ("ms", "bma_bic", "ama")

    def row(i: int, cell: Scenario) -> dict:
        truth = _centered_draws(cell, names, i)
        pipeline = cell.pipeline(names)
        # An engine call, and so a per-dataset KS block, holds at most
        # max(_CALL_REPLICATES, b) replicates per estimator, whatever reps is.
        batch = max(1, _CALL_REPLICATES // plan.b)
        scored, included = {k: [] for k in names}, 0
        for start in range(0, datasets_per_beta, batch):
            ids = range(start, min(start + batch, datasets_per_beta))
            kept, blocks = resampled_estimates(
                [draw_dataset(cell, i, d) for d in ids], pipeline, plan,
                [stream(cell.seed, _TAG_RESAMPLE, i, d) for d in ids],
            )
            included += int(kept.sum())
            for k in names:
                scored[k].append(_ks_arrays(truth[k], blocks[k]))
        if included == 0:
            raise TooManySingularResamples(
                f"all {datasets_per_beta} datasets at beta={cell.params.beta} were excluded"
            )
        errors = {f"err_{k}": 100.0 * float(np.mean(np.concatenate(v))) for k, v in scored.items()}
        excluded = datasets_per_beta - included
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
    sigma: float = TrueParams.sigma,
    c: float = PretestConfig.c,
    a_n: float | None = None,
    k_n: float | None = None,
    pretest_form: str = PretestConfig.form,
    prior_scale: float = Pipeline.prior_scale,
    prior_p_r: float = Pipeline.prior_p_r,
) -> Scenario:
    """Scenario with a frozen uniform design. A None ``a_n`` or ``k_n`` takes the
    default tuning at n (default_tuning(n)), which is built first, so a bad n is
    refused before the design is drawn."""
    default = default_tuning(n)
    tuning = AdaptiveConfig(default.a_n if a_n is None else a_n, default.k_n if k_n is None else k_n)
    return Scenario(
        design=make_uniform_design(n, stream(seed, _TAG_DESIGN, 0)),
        params=TrueParams(alpha=alpha, beta=beta, sigma=sigma),
        pretest=PretestConfig(c, pretest_form),
        adaptive=tuning,
        reps=reps,
        seed=seed,
        prior_scale=prior_scale,
        prior_p_r=prior_p_r,
    )


def single_fit(scenario: Scenario) -> list[dict]:
    """One dataset's row: every estimate, the slope beta_u and each average's weight on R."""
    dataset = draw_dataset(scenario)
    est, p_r = scenario.pipeline(ESTIMATOR_NAMES).fit(dataset)
    stats = dataset.design.stats
    p1, p2 = response_stats(dataset)
    beta_u = solve_normal_equations(stats.s11, stats.s22, stats.s12, stats.det, p1, p2)[1]
    return [{
        "alpha_r": est["r"], "alpha_u": est["u"], "beta_u": beta_u, "ms": est["ms"],
        "bma_exact": est["bma_exact"], "bma_bic": est["bma_bic"], "ama": est["ama"],
        "w_posterior_r": p_r["bma_exact"], "w_bic_r": p_r["bma_bic"], "w_adaptive_r": p_r["ama"],
        "n": scenario.design.n, "seed": scenario.seed,
    }]


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment: ``rows(config, scenario, workers)`` gives the rows of
    ``<stem>.csv`` for a resolved config (its beta grid and ``m`` filled in);
    ``settings`` names the ``RunConfig`` fields those rows read, which with
    ``out`` and ``workers`` are the experiment's flags, config keys and lines of
    ``resolved_config.txt``; one that reads ``n`` runs on (and writes) the
    run's frozen design. ``plot`` is the (column prefix, title, y label) of
    ``<stem>.svg``, which draws the columns :data:`LEGEND` names, or None for
    no plot; ``beta_grid`` is the default beta grid.

    ``rows`` looks its curve up among this module's globals when called, so a
    name rebound after import (as perfbench's tracer does) is the one called.
    """

    rows: Callable[..., list[dict]]
    stem: str
    settings: tuple[str, ...]
    plot: tuple[str, str, str] | None = None
    beta_grid: tuple[float, ...] = tuple(float(v) for v in np.linspace(-1.0, 1.0, 41))


# The settings a beta curve on the run's design reads, and an n sweep's.
_CURVE = ("n", "reps", "seed", "alpha", "sigma", "c", "pretest_form", "a_n", "k_n", "beta_grid")
_SWEEP = ("reps", "seed", "alpha", "beta", "sigma", "n_grid")


def _figure2(method: str) -> Experiment:
    def rows(config, scenario: Scenario, workers: int) -> list[dict]:
        plan = ResamplePlan(b=config.b, m=config.m if method == "subsample" else None)
        return resampling_error_curve(config.beta_grid, scenario, plan, config.datasets_per_beta,
                                      workers=workers)

    title = f"{method} approximation error (100 x mean KS distance)"
    settings = (*_CURVE, "b", "datasets_per_beta")
    if method == "subsample":
        settings += ("m",)
    return Experiment(  # the grid keeps to |beta| <= 0.4, where the methods actually differ
        rows, f"resamp_error_{method}", settings, ("err_", title, "100 * KS(truth, resampling)"),
        beta_grid=tuple(float(v) for v in np.linspace(-0.4, 0.4, 17)),
    )


# Legend label and line style of each plotted column, keyed by the column name
# after its experiment's plot prefix; a plot draws the columns its rows have, in
# this order.
LEGEND = {
    "bma_bic": ("BMA (BIC weights)", "solid"),
    "ms": ("MS (pretest)", "broken"),
    "ama": ("AMA (adaptive)", "dotted"),
    "u": ("U only", "dotdash"),
    "n_risk": ("n * risk", "solid"),
    "mean_p_r": ("mean weight on R", "solid"),
    "mean_sqrtn_p_r": ("sqrt(n) x mean weight", "broken"),
}

# Every CLI experiment by name, in subcommand order; "a-b" is subcommand a with --method b.
EXPERIMENTS = {
    "figure1a": Experiment(
        lambda c, s, w: mse_curve(c.beta_grid, s, workers=w), "mse_curve", _CURVE,
        ("mse_", "Mean squared error by estimator", "MSE"),
    ),
    "figure1b": Experiment(
        lambda c, s, w: ks_ratio_curve(c.beta_grid, s, workers=w), "ks_ratio", _CURVE,
        ("ratio_", "KS location ratio between R and U references", "100 * KS_R / (KS_R + KS_U)"),
    ),
    "figure2-bootstrap": _figure2("bootstrap"),
    "figure2-subsample": _figure2("subsample"),
    "riskbound": Experiment(
        lambda c, s, w: risk_bound_sweep(c.n_grid, s, workers=w), "risk_bound",
        (*_SWEEP, "prior_scale", "prior_p_r"),
        ("", "Normalized risk of the exact-posterior model average", "n * MSE"),
    ),
    "decay": Experiment(
        lambda c, s, w: weight_decay_sweep(c.n_grid, s, workers=w), "weight_decay", _SWEEP,
        ("", "Adaptive weight decay", "weight"),
    ),
    "single": Experiment(
        lambda c, s, w: single_fit(s), "single",
        ("n", "seed", "alpha", "beta", "sigma", "c", "pretest_form", "a_n", "k_n", "prior_scale",
         "prior_p_r"),
    ),
}
