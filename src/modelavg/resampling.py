"""Paired bootstrap, subsampling, and the mean-model bootstrap.

A :class:`ResamplePlan` names the scheme: without ``m`` it is the paired
bootstrap, with ``m`` subsampling. One engine, :func:`resampled_estimates`,
serves both, on one dataset (library calls) or a chunk of them (figure2), and
returns per estimator one block of centred replicates sqrt(size) *
(theta_star - theta_hat), a row per dataset that kept its redraw budget.
A dataset's indices come from :meth:`ResamplePlan.indices`: one (b, size)
block drawn from its own generator; the engine's redraw loop replaces singular
rows from one generator spawned from it at the first redraw. One call of a
:class:`~modelavg.estimators.Pipeline`'s kernel evaluates a chunk's resamples
from their sufficient statistics, as :func:`mean_model_bootstrap` calls its
weight rule once on all b resampled means. Each dataset's row is a
bit-reproducible function of its generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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
            raise ValueError(f"b = {self.b} must be >= 1")
        if self.m is not None and self.m < 2:
            raise ValueError(f"m = {self.m} must be >= 2: a one-row resample is always singular")
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
            raise ValueError(f"m = {self.m} must lie in [2, n = {n}]")
        return self.m

    def indices(self, rng: np.random.Generator, n: int, rows: int) -> np.ndarray:
        """A (rows, size(n)) block of row indices into an n-row dataset, one draw from ``rng``.

        The bootstrap draws n indices with replacement per row; subsampling
        takes the first m entries of an argsort of n uniforms per row, sorted,
        so a subsample is a row set and m = n reproduces the dataset
        bit-for-bit. ``size(n)`` refuses m > n before ``rng`` is touched.
        """
        size = self.size(n)
        if self.m is None:
            return rng.integers(0, n, size=(rows, n))
        return np.sort(np.argsort(rng.random((rows, n)), axis=1)[:, :size], axis=1)


def _require_pipeline(pipeline) -> None:
    if not isinstance(pipeline, Pipeline):
        raise TypeError(
            f"resampling needs a Pipeline (see make_pipeline), not {type(pipeline).__name__}"
        )


def resampled_estimates(
    datasets: Sequence[Dataset],
    pipeline: Pipeline,
    plan: ResamplePlan,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``(kept, blocks)`` for ``plan.b`` resamples of each dataset: ``kept`` is the
    (D,) mask of datasets that kept the plan's redraw budget, and ``blocks[name]``
    the (kept.sum(), b) array of sqrt(size) * (theta_star - theta_hat), a row
    per kept dataset in dataset order.

    Dataset d (at least one, all of one n) draws its (b, size) block with
    :meth:`ResamplePlan.indices` from ``rngs[d]``. A resample's sufficient
    statistics are one take of its dataset's row of a products table and one
    sum; theta_hat sums the whole row, and an m > n raises before any draw.
    A dataset's design is non-singular by construction, so only resamples can
    be: the redraw loop replaces a dataset's singular rows in ascending row
    order, each from one generator spawned from ``rngs[d]`` at the dataset's
    first redraw, and drops the dataset once it has spent
    ``plan.redraw_budget`` redraws. So any refit of the same rows that redraws
    in that order, and agrees on which designs are singular, gets every
    replicate. One kernel call fits every dataset, one every kept resample.
    """
    _require_pipeline(pipeline)
    if len(datasets) != len(rngs):
        raise ValueError(f"{len(datasets)} datasets but {len(rngs)} generators")
    ns = sorted({ds.n for ds in datasets})
    if len(ns) != 1:
        raise ValueError(f"needs datasets of one n, got {len(datasets)} with n in {ns}")
    n, b, size = ns[0], plan.b, plan.size(ns[0])
    cols = np.stack([(ds.design.x1, ds.design.x2, ds.y) for ds in datasets], axis=1)
    # x1*x1, x2*x2, x1*x2, x1*y and x2*y, a row per dataset, each summed along
    # its contiguous last axis as model._inner sums (Pipeline.fit's floats).
    products = cols[[0, 1, 0, 0, 1]] * cols[[0, 1, 1, 2, 2]]
    originals, _ = pipeline.kernel(n, *products.sum(axis=-1))

    def gather(d, index, out):
        np.take(products[:, d], index, axis=1).sum(axis=-1, out=out)

    sums = np.empty((5, len(datasets), b))
    for d, rng in enumerate(rngs):
        gather(d, plan.indices(rng, n, b), sums[:, d])
    kept = np.ones(len(datasets), bool)
    redraws, redraw_rngs = np.zeros(len(datasets), int), {}
    for d, i in zip(*np.nonzero(singular_design(*sums[:3]))):
        while kept[d] and singular_design(*sums[:3, d, i]):
            kept[d] = redraws[d] < plan.redraw_budget
            if kept[d]:
                if redraws[d] == 0:
                    redraw_rngs[d] = rngs[d].spawn(1)[0]
                redraws[d] += 1
                gather(d, plan.indices(redraw_rngs[d], n, 1)[0], sums[:, d, i])
    # Every dataset kept is the common case: a view, not a copy of the sums.
    estimates, _ = pipeline.kernel(size, *(sums if kept.all() else sums[:, kept]).reshape(5, -1))
    return kept, {
        name: np.sqrt(size) * (estimates[name].reshape(-1, b) - originals[name][kept, None])
        for name in pipeline.names
    }


def _distribution(dataset, pipeline, plan, rng) -> EmpiricalSample:
    if len(pipeline.names) != 1:
        raise ValueError("needs the pipeline of one estimator, from make_pipeline")
    (kept,), blocks = resampled_estimates([dataset], pipeline, plan, [rng])
    if not kept:
        raise TooManySingularResamples(f"exceeded {plan.redraw_budget} singular redraws")
    (block,) = blocks.values()
    return EmpiricalSample(block[0])


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
    weight_rule: Callable[[np.ndarray], np.ndarray],
    b: int,
    rng: np.random.Generator,
) -> EmpiricalSample:
    """Bootstrap of the shrunken mean with null-reflecting centering.

    ``y`` holds observations of the one-parameter mean model (iid N(mu, 1)),
    and the estimate is the shrunken mean mu_hat = W(sqrt(n) * ybar) * ybar
    for an elementwise weight function W into [0, 1], like every rule in
    :mod:`modelavg.weights`. The weight argument is centered at the resampled
    mean shift, mu_star = W(sqrt(n) * (ybar_star - ybar)) * ybar_star, and the
    returned replicates are sqrt(n) * (mu_star - mu_hat); W is called once on
    the (b,) array of shifts. Centering inside W mirrors the rule that
    resampling should reflect the no-effect model rather than the observed mean.
    """
    y = np.array(y, dtype=float)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("y must be a non-empty vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    n = y.size
    idx = ResamplePlan(b).indices(rng, n, b)
    root_n = float(np.sqrt(n))
    ybar = float(np.mean(y))
    mu_hat = float(weight_rule(root_n * ybar)) * ybar
    ybar_star = y[idx].mean(axis=1)
    mu_star = weight_rule(root_n * (ybar_star - ybar)) * ybar_star
    return EmpiricalSample(root_n * (mu_star - mu_hat))
