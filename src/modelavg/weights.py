"""Model-weight rules: hard pretest, exact posterior, BIC, and adaptive smooth weights.

The averaging rules give the restricted (slope-free) model a weight p_r and
the unrestricted model p_u = 1 - p_r; the pretest gives a threshold on
|beta_u|. Every rule is evaluated in log-space / through a stable logistic so
that arbitrarily large slope estimates cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelWeights:
    """Weight pair on the restricted/unrestricted models, elementwise; p_u = 1 - p_r."""

    p_r: float | np.ndarray

    def __post_init__(self):
        if not np.all((0.0 <= self.p_r) & (self.p_r <= 1.0)):
            raise ValueError(f"p_r must lie in [0, 1], got {self.p_r!r}")

    @property
    def p_u(self) -> float | np.ndarray:
        return 1.0 - self.p_r


@dataclass(frozen=True)
class PretestConfig:
    """Hard-threshold selection rule.

    ``form="t"`` compares |beta_u / sigma_beta| to c (the reading under which
    c = sqrt(2) mimics AIC and c = sqrt(log n) mimics BIC). ``form="scaled"``
    additionally divides the statistic by sqrt(n), n the rows of the fit (m
    on a subsample). c = 0 makes the rule select U whenever beta_u != 0.
    """

    c: float = math.sqrt(2.0)
    form: str = "t"

    def __post_init__(self):
        if not self.c >= 0.0:
            raise ValueError(f"c = {self.c} must be >= 0")
        if self.form not in ("t", "scaled"):
            raise ValueError(f"pretest form must be 't' or 'scaled', got {self.form!r}")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning pair (a_n, k_n) for the adaptive smooth weights."""

    a_n: float
    k_n: float

    def __post_init__(self):
        if not 0.0 < self.a_n < math.inf:
            raise ValueError(f"a_n = {self.a_n} must be finite and > 0")
        if not 0.0 < self.k_n < math.inf:
            raise ValueError(f"k_n = {self.k_n} must be finite and > 0")


def stable_sigmoid(t):
    """Overflow-safe logistic 1 / (1 + exp(-t)), elementwise."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def pretest_threshold(sigma_beta, config: PretestConfig, n: int):
    """The pretest keeps U where |beta_u| exceeds c * sigma_beta (times sqrt(n) if
    scaled), n the rows of the fit.

    Comparing |beta_u| against c * sigma_beta avoids a 0/0 when sigma_beta = 0
    (noiseless data); the rule then reduces to beta_u != 0.
    """
    threshold = config.c * sigma_beta
    if config.form == "scaled":
        threshold = threshold * math.sqrt(n)
    return threshold


def adaptive_p_r(beta_u, a_n: float, k_n: float):
    """Vectorized adaptive weight 0.5*xi1 + 0.5*xi2.

    xi1 approximates the indicator of {beta_u - k_n <= 0} and xi2 the indicator
    of {beta_u + k_n >= 0}, with data-driven slopes gamma_1 = a_n * beta_u and
    gamma_2 = -a_n * beta_u, giving

        xi1 = logistic(-a_n * beta_u * (beta_u - k_n))
        xi2 = logistic(-a_n * beta_u * (beta_u + k_n)).
    """
    b = np.asarray(beta_u, dtype=float)
    # Overflow to -inf for enormous slopes is intended: the logistic maps it to 0.
    with np.errstate(over="ignore"):
        xi1 = stable_sigmoid(-a_n * b * (b - k_n))
        xi2 = stable_sigmoid(-a_n * b * (b + k_n))
    return 0.5 * xi1 + 0.5 * xi2


def adaptive_weights(beta_u, config: AdaptiveConfig) -> ModelWeights:
    """Smooth data-adaptive weight on the restricted model, elementwise in beta_u."""
    return ModelWeights(adaptive_p_r(beta_u, config.a_n, config.k_n))


def default_tuning(n: int) -> AdaptiveConfig:
    """a_n = (log n)^2 with a shrinking window k_n = sqrt(log(n) / n)."""
    if n < 2:
        raise ValueError(f"n = {n} must be >= 2")
    return AdaptiveConfig(a_n=math.log(n) ** 2, k_n=math.sqrt(math.log(n) / n))


def bic_p_r(gap, n: int):
    """Vectorized BIC weight exp(-BIC_R/2) / (exp(-BIC_R/2) + exp(-BIC_U/2)).

    BIC_R = RSS_R + log n and BIC_U = RSS_U + 2 log n, so only the gap
    RSS_R - RSS_U enters. The ratio is evaluated as the logistic of
    (BIC_U - BIC_R)/2 = (log n - gap)/2, which never exponentiates a large
    positive number.
    """
    return stable_sigmoid((math.log(n) - np.asarray(gap, dtype=float)) / 2.0)


def posterior_log_odds(
    p1,
    p2,
    s11,
    s22,
    s12,
    sigma: float,
    prior_scale: float,
    prior_p_r: float,
):
    """Log posterior odds of the restricted model, vectorized over responses.

    Under the unrestricted model the coefficient prior is N(0, prior_scale^2 I),
    under the restricted model N(0, prior_scale^2); the marginal likelihoods are
    zero-mean Gaussians with covariances sigma^2 I + prior_scale^2 X1 X1' and
    sigma^2 I + prior_scale^2 X X'. Log-determinants use the matrix determinant
    lemma and quadratic forms the Sherman-Morrison-Woodbury identity, so no n x n
    matrix is ever formed. ``p1``, ``p2`` are <x1,y>, <x2,y>. Both quadratic
    forms start from <y,y>/sigma^2, which cancels in their difference, so <y,y>
    is not an argument.

    The 2x2 systems are solved in the units of the larger of sigma^2 and
    prior_scale^2, as k I + rho G with k = min(u, 1), rho = min(1, 1 / u) and
    u = (sigma / prior_scale)^2, and log u is taken from the logs of sigma and
    prior_scale. So every sigma > 0 gives a finite log determinant, however
    small u or sigma^2 underflows, and where the quadratic form overflows to
    -inf (a tiny sigma) that is its limit, weight 0 on R.
    """
    if not sigma > 0.0:
        raise ValueError("posterior log odds need sigma > 0")
    r = sigma / prior_scale
    if r <= 1.0:
        k, rho, log_k = r * r, 1.0, 2.0 * (math.log(sigma) - math.log(prior_scale))
    else:
        k, rho, log_k = 1.0, 1.0 / r / r, 0.0
    k11 = k + rho * s11
    k22 = k + rho * s22
    k12 = rho * s12
    det_k = k11 * k22 - k12 * k12
    logdet_diff = np.log(det_k) - np.log(k11) - log_k

    # 2x2 solve of (k I + rho G) z = p, written out explicitly.
    z1 = (k22 * p1 - k12 * p2) / det_k
    z2 = (k11 * p2 - k12 * p1) / det_k
    # quad_u - quad_r with the common <y,y>/sigma^2 term cancelled.
    with np.errstate(over="ignore"):
        quad_diff = rho * (p1 * p1 / k11 - (p1 * z1 + p2 * z2)) / sigma / sigma

    prior_odds = math.log(prior_p_r) - math.log1p(-prior_p_r)
    return prior_odds + 0.5 * logdet_diff + 0.5 * quad_diff


def exact_posterior_p_r(stats, sigma: float, prior_scale: float, prior_p_r: float):
    """Exact posterior weight of the restricted model, elementwise.

    ``stats`` is the kernel's :class:`~modelavg.estimators.KernelStats`; for
    sigma > 0 only its Gram entries, p1 and p2 enter. For sigma = 0 the
    sigma -> 0 limit is returned: all weight on R when both models interpolate
    y equally well (the gap RSS_R - RSS_U within 1e-9 (1 + p1^2 / s11 + gap),
    the fitted sum of squares, which is <y,y> to round-off for y in the
    design's column space, as every noiseless response is; for noisy y it is
    smaller), otherwise all weight on U. Both sides are compared in square
    roots, |beta_u| sqrt(det / s11) against sqrt(1e-9) hypot(1, |p1| / sqrt(s11),
    sqrt(gap)), so a gap that would overflow (a huge slope) still gives U.
    Only that limit reads ``det`` and ``beta_u``, and it needs a non-collinear
    design. The priors are checked where a Pipeline is built.
    """
    if sigma != 0.0:
        return stable_sigmoid(posterior_log_odds(
            stats.p1, stats.p2, stats.s11, stats.s22, stats.s12, sigma, prior_scale, prior_p_r
        ))
    root_gap = np.abs(stats.beta_u) * np.sqrt(stats.det / stats.s11)
    root_fitted = np.hypot(np.hypot(1.0, np.abs(stats.p1) / np.sqrt(stats.s11)), root_gap)
    return np.where(root_gap <= math.sqrt(1e-9) * root_fitted, 1.0, 0.0)
