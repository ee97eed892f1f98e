"""Two-regressor linear model: design statistics, data generation, closed-form fits.

The data model is y_t = alpha * x_t1 + beta * x_t2 + e_t with e_t iid N(0, sigma^2)
and a fixed (non-random) design. Everything downstream (weights, estimators,
resampling) is built on the design inner products each ``DesignMatrix`` keeps
as its ``DesignStats`` and the closed-form normal-equation solve below.
"""

from __future__ import annotations

import csv
import importlib.resources
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CollinearDesign, ZeroColumn

# A design is treated as collinear when det <= COLLINEARITY_RTOL * s11 * s22.
# Scale-relative so that resampled designs are judged on their own magnitude.
COLLINEARITY_RTOL = 1e-12
_TINY = np.finfo(float).tiny

# Seed used to generate the shipped n=50 reference design (data/design_n50.csv).
REFERENCE_DESIGN_SEED = 5050


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    # np.sum reduces pairwise, which keeps the closed-form identity checks
    # within 1e-10 even for designs with n up to 1e5.
    return float(np.sum(a * b))


def _validated_column(x, name: str) -> np.ndarray:
    arr = np.array(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DesignMatrix:
    """Fixed regressor columns x1 and x2 of common length n >= 2, fittable by construction.

    A zero column raises ZeroColumn; then :func:`compute_design_stats` runs once,
    refusing a singular design, and its result is kept as ``stats``.
    """

    x1: np.ndarray
    x2: np.ndarray
    stats: DesignStats = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x1 = _validated_column(self.x1, "x1")
        x2 = _validated_column(self.x2, "x2")
        if x1.size != x2.size:
            raise ValueError(f"column lengths differ: {x1.size} vs {x2.size}")
        if x1.size < 2:
            raise ValueError("design needs at least two observations")
        if not x1.any():
            raise ZeroColumn("x1 is identically zero")
        if not x2.any():
            raise ZeroColumn("x2 is identically zero")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        object.__setattr__(self, "stats", compute_design_stats(self))

    @property
    def n(self) -> int:
        return self.x1.size


@dataclass(frozen=True)
class TrueParams:
    """Data-generating parameters (sigma is the known noise sd; 0 = noiseless)."""

    alpha: float
    beta: float
    sigma: float = 1.0

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not np.isfinite(value):
                raise ValueError(f"{name} = {value} must be finite")
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma = {self.sigma} must be finite and >= 0")


@dataclass(frozen=True)
class DesignStats:
    """Cached design inner products.

    s11 = <x1, x1>, s22 = <x2, x2>, s12 = <x1, x2> and det = s11 * s22 - s12**2.
    """

    s11: float
    s22: float
    s12: float
    det: float

    def __post_init__(self):
        if not self.s11 > 0.0:
            raise ZeroColumn("s11 must be positive")
        if not self.det >= 0.0:
            raise ValueError("det must be non-negative")


@dataclass(frozen=True)
class Dataset:
    """A design paired with a response vector of matching length."""

    design: DesignMatrix
    y: np.ndarray

    def __post_init__(self):
        y = _validated_column(self.y, "y")
        if y.size != self.design.n:
            raise ValueError(f"y has length {y.size}, design has n={self.design.n}")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.design.n


def singular_design(s11, s22, s12):
    """True where the Gram matrix [[s11, s12], [s12, s22]] is singular, elementwise.

    That is, where ||x1||^2 vanishes or the determinant is zero up to
    COLLINEARITY_RTOL * s11 * s22. The one rule for fixed and resampled designs.
    When that product underflows (a subnormal x2), det / s11, the squared norm
    of x2's residual on x1 that the slope divides by, must still be a normal
    double.
    """
    det = s11 * s22 - s12 * s12
    return (s11 <= 0.0) | (det <= COLLINEARITY_RTOL * s11 * s22) | (det < _TINY * s11)


def compute_design_stats(design: DesignMatrix) -> DesignStats:
    """Exact design inner products, which a DesignMatrix computes once, as ``stats``.

    Raises ZeroColumn when ||x1||^2 vanishes and CollinearDesign when the Gram
    determinant is zero up to the scale-relative tolerance (see
    :func:`singular_design`).
    """
    s11 = _inner(design.x1, design.x1)
    s22 = _inner(design.x2, design.x2)
    s12 = _inner(design.x1, design.x2)
    if s11 <= 0.0:
        raise ZeroColumn("||x1||^2 is zero")
    det = s11 * s22 - s12 * s12
    if singular_design(s11, s22, s12):
        raise CollinearDesign(f"design determinant {det!r} is zero up to tolerance")
    return DesignStats(s11=s11, s22=s22, s12=s12, det=det)


def slope_sd(sigma, s11, det):
    """sigma * sqrt(s11 / det), the sd of the unrestricted slope, elementwise."""
    return sigma * np.sqrt(s11) / np.sqrt(det)


def solve_normal_equations(s11, s22, s12, det, p1, p2):
    """Unrestricted (alpha_u, beta_u) from the Gram matrix and <x1,y>, <x2,y>, elementwise.

    beta_u regresses y on x2's residual on x1 (Frisch-Waugh-Lovell; det / s11 is
    that residual's squared norm) and alpha_u back-substitutes, so
    alpha_r = alpha_u + beta_u * s12 / s11 holds to round-off.  Cramer's rule
    would form s11 * p2, a product of three inner products that underflows to 0
    when x1 is tiny (entries near 1e-141) although the design is well conditioned.
    """
    beta_u = (p2 - (s12 / s11) * p1) / (det / s11)
    alpha_u = (p1 - s12 * beta_u) / s11
    return alpha_u, beta_u


def rss_gap(beta_u, s11, det):
    """RSS_R - RSS_U = beta_u^2 * det / s11 by Frisch-Waugh-Lovell, elementwise.

    det / s11 is the squared norm of x2's residual on x1.
    """
    return beta_u * beta_u * det / s11


def response_stats(dataset: Dataset) -> tuple[float, float]:
    """<x1, y> and <x2, y>: with the design's Gram matrix, all the estimators need."""
    return _inner(dataset.design.x1, dataset.y), _inner(dataset.design.x2, dataset.y)


def responses_in_place(design: DesignMatrix, params: TrueParams, z: np.ndarray) -> np.ndarray:
    """Turn standard-normal noise ``z`` (one row per dataset) into alpha*x1 + beta*x2 + sigma*z.

    Works in ``z``'s own buffer, so a (reps, n) noise block needs no second
    array. The floats equal those of the out-of-place formula, since IEEE
    addition and multiplication are commutative (signed zeros at sigma = 0
    included).
    """
    z *= params.sigma
    z += params.alpha * design.x1 + params.beta * design.x2
    return z


def generate_response(
    design: DesignMatrix, params: TrueParams, rng: np.random.Generator
) -> Dataset:
    """Draw y = alpha*x1 + beta*x2 + sigma*z with z iid standard normal from rng."""
    return Dataset(design, responses_in_place(design, params, rng.standard_normal(design.n)))


def make_uniform_design(n: int, rng: np.random.Generator) -> DesignMatrix:
    """Intercept column plus n Uniform(0, 3) draws, frozen thereafter.

    The uniform column is redrawn, one draw per attempt, on the measure-zero
    event that the design's construction refuses it as collinear.
    """
    if n < 2:
        raise ValueError(f"n = {n} must be >= 2")
    x1 = np.ones(n)
    for _ in range(100):
        try:
            return DesignMatrix(x1, rng.uniform(0.0, 3.0, size=n))
        except CollinearDesign:
            continue
    raise CollinearDesign("could not draw a non-collinear uniform design")


def write_design_csv(design: DesignMatrix, path) -> None:
    """Persist a design as CSV with header i,x1,x2 at full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "x1", "x2"])
        for i in range(design.n):
            writer.writerow([i + 1, repr(float(design.x1[i])), repr(float(design.x2[i]))])


def read_design_csv(path) -> DesignMatrix:
    """Load a design written by :func:`write_design_csv`; blank rows are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected the header i,x1,x2")
        if header != ["i", "x1", "x2"]:
            raise ValueError(f"{path}: unexpected design CSV header: {header}")
        x1, x2 = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}, line {reader.line_num}: expected 3 fields, got {row}")
            try:
                x1.append(float(row[1]))
                x2.append(float(row[2]))
            except ValueError:
                raise ValueError(
                    f"{path}, line {reader.line_num}: non-numeric field in {row}"
                ) from None
    return DesignMatrix(np.asarray(x1), np.asarray(x2))


def load_reference_design() -> DesignMatrix:
    """The shipped n=50 reference design (see REFERENCE_DESIGN_SEED)."""
    ref = importlib.resources.files("modelavg").joinpath("data/design_n50.csv")
    with importlib.resources.as_file(ref) as path:
        return read_design_csv(Path(path))
