"""Paired bootstrap, subsampling, and the mean-model bootstrap.

A :class:`ResamplePlan` names the scheme: without ``m`` it is the paired
bootstrap, with ``m`` subsampling. One engine, :func:`resampled_estimates`,
serves both, for the library calls and for figure2 alike, and returns a
dataset's centred replicates sqrt(size) * (theta_star - theta_hat). A
dataset's resample indices come from :class:`ResampleIndices`: one (b, size)
block drawn from the caller's generator, plus redraws for singular rows from
one generator spawned from it. Each resample is reduced to its sufficient
statistics and a :class:`~modelavg.estimators.Pipeline`'s kernel evaluates
them all at once. The output is a bit-reproducible function of the caller's
generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TooManySingularResamples
from .estimators import Pipeline
from .model import Dataset, singular_design

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

    def quantile(self, q: float) -> float:
        """Order-statistic quantile: the k-th smallest value, k the smallest with k / len >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        # k / len >= q is tested as written: q * len can round up past an
        # integer (0.07 * 100 is 7.000000000000001).
        n = len(self)
        return float(self.sorted_values[np.searchsorted(np.arange(1, n + 1) / n, q)])


@dataclass(frozen=True)
class ResamplePlan:
    """The resampling scheme: how many resamples to draw, and how.

    ``m`` None is the paired bootstrap, n rows with replacement; an integer
    ``m`` is subsampling, m rows without replacement. ``max_redraws`` caps
    redraws after singular resampled designs and defaults to
    MAX_REDRAW_FACTOR * b.
    """

    b: int
    m: int | None = None
    max_redraws: int | None = None

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if self.m is not None and self.m < 2:
            raise ValueError(f"m={self.m} must be >= 2: a one-row resample is always singular")
        if self.max_redraws is not None and self.max_redraws < 0:
            raise ValueError("max_redraws must be >= 0")

    @property
    def redraw_budget(self) -> int:
        return self.max_redraws if self.max_redraws is not None else MAX_REDRAW_FACTOR * self.b

    def size(self, n: int) -> int:
        """Rows per resample of an n-row dataset: n for the bootstrap, m for subsampling."""
        if self.m is None:
            return n
        if self.m > n:
            raise ValueError(f"subsample size m={self.m} must lie in [2, n={n}]")
        return self.m


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

    def __init__(self, rng: np.random.Generator, n: int, plan: ResamplePlan):
        self.n = n
        self.size = plan.size(n)
        self.subsample = plan.m is not None
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


def _require_pipeline(pipeline) -> None:
    if not isinstance(pipeline, Pipeline):
        raise TypeError(
            f"resampling needs a Pipeline (see make_pipeline), not {type(pipeline).__name__}"
        )


def resampled_estimates(
    dataset: Dataset,
    pipeline: Pipeline,
    plan: ResamplePlan,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """sqrt(size) * (theta_star - theta_hat) per name, for each of ``plan.b`` resamples.

    theta_hat is the pipeline's fit of the full dataset, which comes first, so
    a singular dataset raises before any draw. Indices come from
    :class:`ResampleIndices`. Each resample is reduced to its sufficient
    statistics (the design inner products, <x1,y>, <x2,y> and <y,y>), and one
    call of the pipeline's kernel evaluates all of them for theta_star.
    Singular rows are redrawn in ascending row order until the plan's budget
    is spent, then TooManySingularResamples is raised.
    """
    _require_pipeline(pipeline)
    originals, _ = pipeline.fit(dataset)
    x1_full, x2_full, y_full = dataset.design.x1, dataset.design.x2, dataset.y
    indices = ResampleIndices(rng, dataset.n, plan)

    def gather(index):
        x1 = x1_full[index]
        x2 = x2_full[index]
        y = y_full[index]
        # Rows: s11, s22, s12, <x1,y>, <x2,y>, <y,y>.
        return np.stack([
            np.sum(x1 * x1, axis=-1), np.sum(x2 * x2, axis=-1), np.sum(x1 * x2, axis=-1),
            np.sum(x1 * y, axis=-1), np.sum(x2 * y, axis=-1), np.sum(y * y, axis=-1),
        ])

    sums = gather(indices.block)
    for i in np.nonzero(singular_design(*sums[:3]))[0]:
        while singular_design(*sums[:3, i]):
            sums[:, i] = gather(indices.redraw())
    estimates, _ = pipeline.kernel(indices.size, *sums)
    scale = float(np.sqrt(indices.size))
    return {name: scale * (estimates[name] - originals[name]) for name in pipeline.names}


def _distribution(dataset, pipeline, plan, rng) -> EmpiricalSample:
    if len(pipeline.names) != 1:
        raise ValueError("needs the pipeline of one estimator, from make_pipeline")
    (values,) = resampled_estimates(dataset, pipeline, plan, rng).values()
    return EmpiricalSample(values)


def paired_bootstrap(
    dataset: Dataset,
    pipeline: Pipeline,
    plan: ResamplePlan,
    rng: np.random.Generator,
) -> EmpiricalSample:
    """Simple random sampling of (x, y) pairs with replacement, b times.

    The returned sample holds sqrt(n) * (theta_star - theta_hat) for the one
    estimator of ``pipeline`` (from :func:`make_pipeline`). ``plan`` must be
    a bootstrap plan, without ``m``.
    """
    _require_pipeline(pipeline)
    if plan.m is not None:
        raise ValueError(f"the paired bootstrap takes a plan without m, got m={plan.m}")
    return _distribution(dataset, pipeline, plan, rng)


def subsample_distribution(
    dataset: Dataset,
    pipeline: Pipeline,
    plan: ResamplePlan,
    rng: np.random.Generator,
) -> EmpiricalSample:
    """b random size-m subsets without replacement; sqrt(m) * (theta_m - theta_n).

    ``plan`` must be a subsampling plan, with ``m``.
    """
    _require_pipeline(pipeline)
    if plan.m is None:
        raise ValueError("subsampling takes a plan with a subsample size m")
    return _distribution(dataset, pipeline, plan, rng)


def mean_model_bootstrap(
    y,
    weight_rule: Callable[[float], float],
    b: int,
    rng: np.random.Generator,
) -> EmpiricalSample:
    """Bootstrap of the shrunken mean with null-reflecting centering.

    ``y`` holds observations of the one-parameter mean model (iid N(mu, 1)),
    and the estimate is the shrunken mean mu_hat = W(sqrt(n) * ybar) * ybar
    for a weight function W into [0, 1]. The weight argument is centered at
    the resampled mean shift, mu_star = W(sqrt(n) * (ybar_star - ybar)) *
    ybar_star, and the returned replicates are sqrt(n) * (mu_star - mu_hat).
    Centering inside W mirrors the rule that resampling should reflect the
    no-effect model rather than the observed mean.
    """
    y = np.array(y, dtype=float)
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
