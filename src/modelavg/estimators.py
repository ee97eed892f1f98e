"""The competing point estimators of the intercept-slope target alpha.

Six estimates per dataset: restricted-only, unrestricted-only, post-model-
selection (hard pretest), exact-posterior model average, BIC model average,
and the adaptive model average. A mean-model analogue (weighted shrinkage of
the sample mean) is included for the resampling coverage experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    Dataset,
    compute_design_stats,
    response_stats,
    rss_gap,
    slope_sd,
    solve_normal_equations,
)
from .weights import (
    AdaptiveConfig,
    PretestConfig,
    adaptive_p_r,
    bic_p_r,
    exact_posterior_p_r,
    pretest_threshold,
)

ESTIMATOR_NAMES = ("r", "u", "ms", "bma_exact", "bma_bic", "ama")


@dataclass(frozen=True)
class MeanModelSample:
    """Observations from the one-parameter mean model (iid N(mu, 1))."""

    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 1 or y.size < 1:
            raise ValueError("y must be a non-empty vector")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size


def _check_names(names, pretest_config, adaptive_config) -> None:
    unknown = set(names) - set(ESTIMATOR_NAMES)
    if unknown:
        raise ValueError(f"unknown estimator names: {sorted(unknown)}")
    if "ms" in names and pretest_config is None:
        raise ValueError("'ms' needs a pretest config")
    if "ama" in names and adaptive_config is None:
        raise ValueError("'ama' needs an adaptive config")


def _convex(alpha_r, alpha_u, p_r):
    value = alpha_u + p_r * (alpha_r - alpha_u)
    # Clamp away the last-ulp excursions so the average always lies in the
    # closed interval between its two constituents.
    lo, hi = np.minimum(alpha_r, alpha_u), np.maximum(alpha_r, alpha_u)
    return np.minimum(np.maximum(value, lo), hi)


def estimate_arrays(
    n: int, s11, s22, s12, p1, p2,
    names: Sequence[str],
    sigma: float,
    pretest_config: PretestConfig | None = None,
    adaptive_config: AdaptiveConfig | None = None,
    prior_scale: float = 1.0,
    prior_p_r: float = 0.5,
    yy=None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Every estimator of alpha from the sufficient statistics, elementwise.

    ``s11``, ``s22``, ``s12`` are the design inner products and ``p1``, ``p2``
    the products <x1,y>, <x2,y> of n observations; each may be a scalar or an
    array of datasets. Returns the estimates for ``names`` and the weight on
    the restricted model of each averaging rule among them (``bma_exact``,
    ``bma_bic``, ``ama``). ``yy`` = <y,y> is needed only for ``bma_exact`` at
    sigma = 0. The design must be non-singular (det > 0).
    """
    _check_names(names, pretest_config, adaptive_config)
    det = s11 * s22 - s12 * s12
    alpha_r = p1 / s11
    alpha_u, beta_u = solve_normal_equations(s11, s22, s12, det, p1, p2)
    p_r = {}
    if "bma_exact" in names:
        p_r["bma_exact"] = exact_posterior_p_r(
            p1, p2, s11, s22, s12, sigma, prior_scale, prior_p_r, yy
        )
    if "bma_bic" in names:
        p_r["bma_bic"] = bic_p_r(rss_gap(beta_u, s11, det), 0.0, n)
    if "ama" in names:
        p_r["ama"] = adaptive_p_r(beta_u, adaptive_config.a_n, adaptive_config.k_n)
    estimates = {}
    for name in names:
        if name == "r":
            estimates[name] = alpha_r
        elif name == "u":
            estimates[name] = alpha_u
        elif name == "ms":
            threshold = pretest_threshold(slope_sd(sigma, s11, det), pretest_config)
            estimates[name] = np.where(np.abs(beta_u) > threshold, alpha_u, alpha_r)
        else:
            estimates[name] = _convex(alpha_r, alpha_u, p_r[name])
    return estimates, p_r


def mean_model_estimate(sample: MeanModelSample, weight_rule: Callable[[float], float]) -> float:
    """Shrunken mean W(sqrt(n) * ybar) * ybar for a weight function W into [0, 1]."""
    ybar = float(np.mean(sample.y))
    w = float(weight_rule(np.sqrt(sample.n) * ybar))
    return w * ybar


@dataclass(frozen=True)
class Pipeline:
    """The estimators ``names`` and the kernel settings they run with.

    :meth:`fit` refits one dataset from scratch (design stats, fits, weights);
    the Monte Carlo harness and the resampling engine evaluate whole arrays of
    datasets through :meth:`kernel`. Construction raises on unknown names,
    missing configs, a sigma that is not >= 0 (nan included), a prior_scale
    that is not > 0 or a prior_p_r outside (0, 1); fitting a singular dataset
    raises CollinearDesign or ZeroColumn.
    """

    names: tuple[str, ...]
    sigma: float
    pretest: PretestConfig | None = None
    adaptive: AdaptiveConfig | None = None
    prior_scale: float = 1.0
    prior_p_r: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        _check_names(self.names, self.pretest, self.adaptive)
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be >= 0")
        if not self.prior_scale > 0.0:
            raise ValueError("prior_scale must be > 0")
        if not 0.0 < self.prior_p_r < 1.0:
            raise ValueError("prior_p_r must lie in (0, 1)")

    def kernel(self, n: int, s11, s22, s12, p1, p2, yy=None):
        """:func:`estimate_arrays` for ``names`` with this pipeline's settings."""
        return estimate_arrays(
            n, s11, s22, s12, p1, p2, self.names, self.sigma, self.pretest,
            self.adaptive, self.prior_scale, self.prior_p_r, yy=yy,
        )

    def fit(self, dataset: Dataset) -> tuple[dict[str, float], dict[str, float]]:
        """The estimate of each name and each averaging rule's weight on R, as floats."""
        stats = compute_design_stats(dataset.design)
        p1, p2, yy = response_stats(dataset)
        est, p_r = self.kernel(dataset.n, stats.s11, stats.s22, stats.s12, p1, p2, yy)
        return (
            {name: float(value) for name, value in est.items()},
            {name: float(value) for name, value in p_r.items()},
        )

    def __call__(self, dataset: Dataset) -> float:
        """A one-estimator pipeline's estimate; perfbench's api_resample check calls it."""
        (name,) = self.names  # ValueError for a pipeline of several estimators
        return self.fit(dataset)[0][name]


def make_pipeline(
    name: str,
    sigma: float,
    pretest_config: PretestConfig | None = None,
    adaptive_config: AdaptiveConfig | None = None,
    prior_scale: float = 1.0,
    prior_p_r: float = 0.5,
) -> Pipeline:
    """The pipeline of the one estimator ``name``, as the resampling calls take it."""
    return Pipeline((name,), sigma, pretest_config, adaptive_config, prior_scale, prior_p_r)
