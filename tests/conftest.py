import math

import numpy as np
import pytest
from hypothesis import settings

from modelavg.model import Dataset, DesignMatrix

# Every @given test draws the same examples on each run and in each checkout:
# a seed derived from the test itself, and no database of earlier failures to
# replay. A test's own @settings still sets its example count.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def random_dataset(rng, n=None, allow_badly_scaled=False):
    """A random well-posed dataset for oracle comparisons."""
    if n is None:
        n = int(rng.integers(3, 30))
    scale = 10.0 ** rng.uniform(-2, 2) if allow_badly_scaled else 1.0
    while True:
        x1 = rng.normal(0.0, scale, n)
        x2 = rng.normal(rng.uniform(-2, 2), scale, n)
        try:
            design = DesignMatrix(x1, x2)
        except Exception:
            continue
        gram = np.array([[x1 @ x1, x1 @ x2], [x1 @ x2, x2 @ x2]])
        # Keep the oracle comparisons away from near-singular corners.
        if np.linalg.det(gram) > 1e-6 * gram[0, 0] * gram[1, 1]:
            break
    y = rng.normal(0.0, 1.0, n)
    return Dataset(design, y)


def ols_normal_equation_oracle(dataset):
    """Independent least-squares solve: stacked design, numpy linear algebra."""
    x = np.column_stack([dataset.design.x1, dataset.design.x2])
    coef = np.linalg.solve(x.T @ x, x.T @ dataset.y)
    return float(coef[0]), float(coef[1])


def dense_posterior_oracle(dataset, sigma, prior_scale=1.0, prior_p_r=0.5):
    """Posterior weight of the restricted model from full n x n Gaussian marginal likelihoods."""
    x1 = dataset.design.x1
    x = np.column_stack([x1, dataset.design.x2])
    n = dataset.n
    t2 = prior_scale ** 2

    def log_density(cov):
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        quad = float(dataset.y @ np.linalg.solve(cov, dataset.y))
        return -0.5 * (n * math.log(2 * math.pi) + logdet + quad)

    log_m_r = log_density(sigma ** 2 * np.eye(n) + t2 * np.outer(x1, x1))
    log_m_u = log_density(sigma ** 2 * np.eye(n) + t2 * (x @ x.T))
    log_r = math.log(prior_p_r) + log_m_r
    log_u = math.log(1 - prior_p_r) + log_m_u
    m = max(log_r, log_u)
    return math.exp(log_r - m) / (math.exp(log_r - m) + math.exp(log_u - m))


def mean_model_reference(y, rule, b, rng):
    """The mean-model bootstrap one replicate at a time, calling ``rule`` on scalars only."""
    y = np.asarray(y, dtype=float)
    n = y.size
    root_n = float(np.sqrt(n))
    ybar = float(np.mean(y))
    mu_hat = float(rule(root_n * ybar)) * ybar
    ybar_star = y[rng.integers(0, n, size=(b, n))].mean(axis=1)
    values = np.empty(b)
    for i, yb in enumerate(ybar_star):
        mu_star = float(rule(root_n * (yb - ybar))) * yb
        values[i] = root_n * (mu_star - mu_hat)
    return values


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
