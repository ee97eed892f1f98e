"""The competing point estimators of the intercept-slope target alpha.

Six estimates per dataset: restricted-only, unrestricted-only, post-model-
selection (hard pretest), exact-posterior model average, BIC model average,
and the adaptive model average, all evaluated by one kernel,
:meth:`Pipeline.kernel`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
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


def _bic_rule(s, pipe):
    # A gap that overflows to inf (a huge slope) is the intended limit: weight 0 on R.
    with np.errstate(over="ignore"):
        gap = rss_gap(s.beta_u, s.s11, s.det)
    return bic_p_r(gap, s.n)


# Every estimator is alpha_u + p_R * (alpha_r - alpha_u). P_R_RULES maps each name
# to its rule for p_R, the weight on the restricted model, from the Pipeline and
# the kernel's KernelStats: the sufficient statistics of n observations (scalars
# or arrays of datasets) plus det and the unrestricted slope beta_u.
KernelStats = namedtuple("KernelStats", "n s11 s22 s12 p1 p2 det beta_u")
P_R_RULES = {
    "r": lambda s, pipe: True,
    "u": lambda s, pipe: False,
    # ~(>) keeps R on ties and for a nan slope.
    "ms": lambda s, pipe: ~(
        np.abs(s.beta_u) > pretest_threshold(slope_sd(pipe.sigma, s.s11, s.det), pipe.pretest, s.n)
    ),
    "bma_exact": lambda s, pipe: exact_posterior_p_r(
        s, pipe.sigma, pipe.prior_scale, pipe.prior_p_r
    ),
    "bma_bic": _bic_rule,
    "ama": lambda s, pipe: adaptive_p_r(s.beta_u, pipe.adaptive.a_n, pipe.adaptive.k_n),
}
ESTIMATOR_NAMES = tuple(P_R_RULES)


def _convex(alpha_r, alpha_u, p_r):
    value = alpha_u + p_r * (alpha_r - alpha_u)
    # Clamp away the last-ulp excursions so the average always lies in the
    # closed interval between its two constituents.
    lo, hi = np.minimum(alpha_r, alpha_u), np.maximum(alpha_r, alpha_u)
    return np.minimum(np.maximum(value, lo), hi)


def _combine(alpha_r, alpha_u, p_r):
    """A boolean p_r selects exactly (_convex(., ., 1.0) can miss alpha_r by an ulp)."""
    if np.result_type(p_r) == bool:
        return np.where(p_r, alpha_r, alpha_u)
    return _convex(alpha_r, alpha_u, p_r)


@dataclass(frozen=True)
class Pipeline:
    """The estimators ``names`` and the kernel settings they run with.

    :meth:`fit` refits one dataset (its design's stats, fits, weights); the
    Monte Carlo harness and the resampling engine evaluate whole arrays of
    datasets through :meth:`kernel`. Construction raises on names given as one
    string or missing from :data:`P_R_RULES`, missing configs, a sigma that is
    not finite and >= 0, a prior_scale that is not finite and > 0 (nan fails
    both) or a prior_p_r outside (0, 1). Every dataset can be fitted: its
    DesignMatrix refused a singular design when it was built.
    """

    names: tuple[str, ...]
    sigma: float
    pretest: PretestConfig | None = None
    adaptive: AdaptiveConfig | None = None
    prior_scale: float = 1.0
    prior_p_r: float = 0.5

    def __post_init__(self):
        if isinstance(self.names, str):
            raise TypeError(
                f"names = {self.names!r} is a string; pass a tuple of names"
                f" or call make_pipeline({self.names!r}, ...)"
            )
        object.__setattr__(self, "names", tuple(self.names))
        unknown = set(self.names) - set(P_R_RULES)
        if unknown:
            raise ValueError(f"unknown estimator names: {sorted(unknown)}")
        if "ms" in self.names and self.pretest is None:
            raise ValueError("'ms' needs a pretest config")
        if "ama" in self.names and self.adaptive is None:
            raise ValueError("'ama' needs an adaptive config")
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma = {self.sigma} must be finite and >= 0")
        if not 0.0 < self.prior_scale < np.inf:
            raise ValueError(f"prior_scale = {self.prior_scale} must be finite and > 0")
        if not 0.0 < self.prior_p_r < 1.0:
            raise ValueError(f"prior_p_r = {self.prior_p_r} must lie in (0, 1)")

    def kernel(
        self, n: int, s11, s22, s12, p1, p2
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Every estimator in ``names`` from the sufficient statistics, elementwise.

        ``s11``, ``s22``, ``s12`` are the design inner products and ``p1``,
        ``p2`` the products <x1,y>, <x2,y> of n observations; each may be a
        scalar or an array of datasets. The design must be non-singular (det > 0).
        Each name's rule in :data:`P_R_RULES` gives its weight p_R on R; a
        boolean p_R selects alpha_r or alpha_u exactly, a float one averages
        them. Returns the estimates and p_R per name (True for r, False for u).
        """
        det = s11 * s22 - s12 * s12
        alpha_r = p1 / s11
        alpha_u, beta_u = solve_normal_equations(s11, s22, s12, det, p1, p2)
        stats = KernelStats(n, s11, s22, s12, p1, p2, det, beta_u)
        p_r = {name: P_R_RULES[name](stats, self) for name in self.names}
        return {name: _combine(alpha_r, alpha_u, p) for name, p in p_r.items()}, p_r

    def fit(self, dataset: Dataset) -> tuple[dict[str, float], dict[str, float]]:
        """The estimate and the weight on R of each name, as floats (1.0 for r, 0.0 for u)."""
        stats = dataset.design.stats
        est, p_r = self.kernel(dataset.n, stats.s11, stats.s22, stats.s12, *response_stats(dataset))
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
    prior_scale: float = Pipeline.prior_scale,
    prior_p_r: float = Pipeline.prior_p_r,
) -> Pipeline:
    """The pipeline of the one estimator ``name``, as the resampling calls take it."""
    return Pipeline((name,), sigma, pretest_config, adaptive_config, prior_scale, prior_p_r)
