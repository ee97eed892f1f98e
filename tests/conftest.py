import math

import numpy as np
import pytest
from hypothesis import settings

from modelavg.experiments import _TAG_RESAMPLE, _centered_draws, draw_dataset, stream
from modelavg.model import Dataset, DesignMatrix, singular_design
from modelavg.resampling import resampled_estimates

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


def stable_sigmoid_reference(t):
    """The logistic by two masked assignments, one per sign of t."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def ks_oracle(x, y):
    """Two-sample KS distance of two 1-D samples, one searchsorted pair at a time.

    It counts at the points of whichever sample is smaller, where
    ``experiments._ks_arrays`` always counts at its rows' own points, so on
    samples of unequal size the two reach the same floats from different
    points (``test_ks_equals_merged_grid_oracle_exactly``).
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


def stacked_sums_engine(datasets, pipeline, plan, rngs):
    """The resampling engine one dataset at a time, with each statistic gathered
    and summed on its own: three fancy-indexes, five products and five sums per
    resample block. Returns the engine's ``(kept, blocks)``: the mask of
    datasets that kept their redraw budget and, per name, a row per kept one."""
    rows = [_stacked_sums_one(ds, pipeline, plan, rng) for ds, rng in zip(datasets, rngs)]
    kept = np.array([row is not None for row in rows])
    blocks = {
        name: np.array([row[name] for row in rows if row is not None]).reshape(-1, plan.b)
        for name in pipeline.names
    }
    return kept, blocks


def layout_indices(rng, n, plan):
    """Stream layout 2 written out on its own, for the reference engines.

    Returns ``(block, redraws)``. ``block`` is the (b, size) index block drawn
    from ``rng``: n indices with replacement per row for the bootstrap, the
    sorted first m entries of an argsort of n uniforms per row for
    subsampling. ``redraws`` yields up to ``plan.redraw_budget`` replacement
    rows for singular ones, drawn the same way, one at a time, from one
    generator spawned from ``rng`` at the first redraw.
    """
    size = plan.size(n)

    def draw(gen, rows):
        if plan.m is None:
            return gen.integers(0, n, size=(rows, n))
        return np.sort(np.argsort(gen.random((rows, n)), axis=1)[:, :size], axis=1)

    def redraws():  # the body, and so the spawn, runs at the first redraw
        if plan.redraw_budget:
            child = rng.spawn(1)[0]
            for _ in range(plan.redraw_budget):
                yield draw(child, 1)[0]

    return draw(rng, plan.b), redraws()


def _stacked_sums_one(dataset, pipeline, plan, rng):
    originals, _ = pipeline.fit(dataset)
    x1_full, x2_full, y_full = dataset.design.x1, dataset.design.x2, dataset.y
    block, redraws = layout_indices(rng, dataset.n, plan)

    def gather(index):
        x1 = x1_full[index]
        x2 = x2_full[index]
        y = y_full[index]
        return np.stack([
            np.sum(x1 * x1, axis=-1), np.sum(x2 * x2, axis=-1), np.sum(x1 * x2, axis=-1),
            np.sum(x1 * y, axis=-1), np.sum(x2 * y, axis=-1),
        ])

    sums = gather(block)
    for i in np.nonzero(singular_design(*sums[:3]))[0]:
        while singular_design(*sums[:3, i]):
            row = next(redraws, None)
            if row is None:  # the redraw budget is spent
                return None
            sums[:, i] = gather(row)
    size = plan.size(dataset.n)
    estimates, _ = pipeline.kernel(size, *sums)
    scale = float(np.sqrt(size))
    return {name: scale * (estimates[name] - originals[name]) for name in pipeline.names}


def error_row_reference(cell, grid_index, plan, datasets_per_beta, mode="per_dataset"):
    """A resampling-error row scored with :func:`ks_oracle`: per dataset, one
    call on each dataset's replicates alone; pooled, one call on the
    concatenation of every included dataset's replicates."""
    names = ("ms", "bma_bic", "ama")
    truth = _centered_draws(cell, names, grid_index)
    pipeline = cell.pipeline(names)
    held = {k: [] for k in names}
    excluded = 0
    for d in range(datasets_per_beta):
        ds = draw_dataset(cell, grid_index, d)
        rng = stream(cell.seed, _TAG_RESAMPLE, grid_index, d)
        (kept,), blocks = resampled_estimates([ds], pipeline, plan, [rng])
        if not kept:
            excluded += 1
            continue
        for k in names:
            held[k].append(blocks[k][0])
    if mode == "per_dataset":
        errors = {
            f"err_{k}": 100.0 * float(np.mean([ks_oracle(truth[k], v) for v in held[k]]))
            for k in names
        }
    else:
        errors = {f"err_{k}": 100.0 * ks_oracle(truth[k], np.concatenate(held[k])) for k in names}
    return {**errors, "datasets": datasets_per_beta - excluded, "b": plan.b, "excluded": excluded}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
