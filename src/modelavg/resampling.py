"""Paired bootstrap, subsampling, and the mean-model bootstrap.

Each engine returns an :class:`EmpiricalSample` of centered-and-scaled
replicates. A dataset's resample indices come from :class:`ResampleIndices`:
one (b, size) block drawn from the caller's generator, plus redraws for
singular rows from one generator spawned from it. The output is a
bit-reproducible function of the caller's generator, and every engine that
takes its indices from there sees the same replicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import CollinearDesign, TooManySingularResamples, ZeroColumn
from .model import Dataset

# Redraw budget for singular resampled designs, as a multiple of the number of
# requested resamples.
MAX_REDRAW_FACTOR = 100

# Layout of the resample index streams, written to every run's resolved
# config. 1: one spawned generator per replicate. 2: one (b, size) block per
# dataset, singular rows redrawn from one spawned generator.
STREAM_VERSION = 2


class EmpiricalSample:
    """A finite sample standing in for a sampling / resampling distribution."""

    __slots__ = ("values", "_sorted")

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("an empirical sample must be a non-empty vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("an empirical sample must be finite")
        arr.setflags(write=False)
        self.values = arr
        self._sorted = None

    def __len__(self) -> int:
        return self.values.size

    @property
    def sorted_values(self) -> np.ndarray:
        if self._sorted is None:
            s = np.sort(self.values)
            s.setflags(write=False)
            self._sorted = s
        return self._sorted

    def ecdf(self, t):
        """Right-continuous empirical CDF with steps of size 1/len."""
        idx = np.searchsorted(self.sorted_values, np.asarray(t, dtype=float), side="right")
        return idx / self.values.size

    def quantile(self, q: float) -> float:
        """Order-statistic quantile: smallest value with ECDF >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        k = int(np.ceil(q * len(self))) - 1
        return float(self.sorted_values[max(k, 0)])


@dataclass(frozen=True)
class ResamplePlan:
    """How many resamples to draw, and of what size.

    ``m`` is the subsample size for subsampling plans (None for the paired
    bootstrap). ``max_redraws`` caps redraws after singular resampled designs
    and defaults to MAX_REDRAW_FACTOR * b.
    """

    b: int
    m: int | None = None
    max_redraws: int | None = None

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be >= 1")
        if self.max_redraws is not None and self.max_redraws < 0:
            raise ValueError("max_redraws must be >= 0")

    @property
    def redraw_budget(self) -> int:
        return self.max_redraws if self.max_redraws is not None else MAX_REDRAW_FACTOR * self.b


class ResampleIndices:
    """Row indices of one dataset's ``plan.b`` resamples.

    ``block`` holds one row of indices per replicate, all drawn at once from
    ``rng``: n draws with replacement for the bootstrap; for subsampling, the
    first ``size`` entries of a random permutation per row, sorted. Sorted
    rows make a subsample a row set, so size = n reproduces the dataset
    bit-for-bit. :meth:`redraw` replaces a singular row from one generator
    spawned from ``rng``. Engines redraw singular rows in ascending row order,
    so two engines that agree on which designs are singular agree on every
    replicate.
    """

    def __init__(self, rng: np.random.Generator, n: int, plan: ResamplePlan, subsample: bool):
        size = n
        if subsample:
            size = plan.m if plan.m is not None else n
            if not 1 <= size <= n:
                raise ValueError(f"subsample size m={size} must lie in [1, n={n}]")
        self.n = n
        self.size = size
        self.subsample = subsample
        self.budget = plan.redraw_budget
        self.redraws = 0
        self.block = self._draw(rng, plan.b)
        self._redraw_rng = rng.spawn(1)[0]

    def _draw(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        if self.subsample:
            perm = np.argsort(rng.random((rows, self.n)), axis=1)
            return np.sort(perm[:, : self.size], axis=1)
        return rng.integers(0, self.n, size=(rows, self.n))

    def redraw(self) -> np.ndarray:
        """A fresh index row; raises once the redraw budget is spent."""
        self.redraws += 1
        if self.redraws > self.budget:
            raise TooManySingularResamples(
                f"exceeded {self.budget} redraws after singular resampled designs"
            )
        return self._draw(self._redraw_rng, 1)[0]


def resample_many(
    dataset: Dataset,
    procedure: Callable[[Dataset], Mapping[str, float]],
    plan: ResamplePlan,
    rng: np.random.Generator,
    scale: float,
    subsample: bool,
) -> dict[str, EmpiricalSample]:
    """Shared engine: draw index sets, refit, center and scale.

    ``procedure`` maps a dataset to named estimates, letting several estimators
    share one set of resample draws. Returns ``scale * (theta_star - theta_hat)``
    per name, where theta_hat comes from the full dataset. Resamples whose
    design is singular are redrawn against a shared budget.
    """
    indices = ResampleIndices(rng, dataset.n, plan, subsample)
    originals = dict(procedure(dataset))
    out = {name: np.empty(plan.b) for name in originals}
    for i, idx in enumerate(indices.block):
        while True:
            try:
                star = procedure(dataset.rows(idx))
                break
            except (CollinearDesign, ZeroColumn):
                pass
            idx = indices.redraw()
        for name, theta in star.items():
            out[name][i] = scale * (theta - originals[name])
    return {name: EmpiricalSample(vals) for name, vals in out.items()}


def paired_bootstrap(
    dataset: Dataset,
    estimator_procedure: Callable[[Dataset], float],
    plan: ResamplePlan,
    rng: np.random.Generator,
) -> EmpiricalSample:
    """Simple random sampling of (x, y) pairs with replacement, b times.

    The estimator procedure re-runs the whole pipeline on each resample; the
    returned sample holds sqrt(n) * (theta_star - theta_hat).
    """
    res = resample_many(
        dataset,
        lambda ds: {"_": estimator_procedure(ds)},
        plan,
        rng,
        scale=float(np.sqrt(dataset.n)),
        subsample=False,
    )
    return res["_"]


def subsample_distribution(
    dataset: Dataset,
    estimator_procedure: Callable[[Dataset], float],
    plan: ResamplePlan,
    rng: np.random.Generator,
) -> EmpiricalSample:
    """b random size-m subsets without replacement; sqrt(m) * (theta_m - theta_n)."""
    m = plan.m if plan.m is not None else dataset.n
    res = resample_many(
        dataset,
        lambda ds: {"_": estimator_procedure(ds)},
        plan,
        rng,
        scale=float(np.sqrt(m)),
        subsample=True,
    )
    return res["_"]


def mean_model_bootstrap(
    y,
    weight_rule: Callable[[float], float],
    b: int,
    rng: np.random.Generator,
) -> EmpiricalSample:
    """Bootstrap of the shrunken mean with null-reflecting centering.

    The weight argument is centered at the resampled mean shift,
    mu_star = W(sqrt(n) * (ybar_star - ybar)) * ybar_star, and the returned
    replicates are sqrt(n) * (mu_star - mu_hat). Centering inside W mirrors the
    rule that resampling should reflect the no-effect model rather than the
    observed mean.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("y must be a non-empty vector")
    if b < 1:
        raise ValueError("b must be >= 1")
    n = y.size
    root_n = float(np.sqrt(n))
    ybar = float(np.mean(y))
    mu_hat = float(weight_rule(root_n * ybar)) * ybar
    idx = rng.integers(0, n, size=(b, n))
    ybar_star = y[idx].mean(axis=1)
    values = np.empty(b)
    for i, yb in enumerate(ybar_star):
        mu_star = float(weight_rule(root_n * (yb - ybar))) * yb
        values[i] = root_n * (mu_star - mu_hat)
    return EmpiricalSample(values)
