"""Gaussian measures on R^d and affine maps with Gaussian noise.

An affine-Gaussian map sends x to N(Ax + b, noise).  The class is
closed under composition, pushforward, graphs, convolution and exact
Bayesian inversion, all computed in closed form.  A discretization
bridge turns low-dimensional Gaussian problems into finite ones on a
grid of cell centers, so the finite machinery can cross-check the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GridError, NotPSDError, SchemaError, SingularMatrixError, _clip
from .measures import (FiniteMeasure, FiniteSpace, _element_types, _freeze,
                       prob_measure, product_space)
from .kernels import FiniteKernel, finite_kernel
from .bayes import BayesModel

# Covariances may be asymmetric by at most this much (then symmetrized),
# times their scale max(1, largest |entry|), as rounding error grows with it.
SYMMETRY_TOL = 1e-10
# Eigenvalues in [-EIG_TOL * scale, 0) are clamped to 0; lower ones are rejected.
EIG_TOL = 1e-10
# Refuse linear solves beyond this condition-number estimate.
MAX_CONDITION = 1e12


def _finite(values, what: str) -> np.ndarray:
    """``values`` as a new float64 array (the constructors freeze it).
    Refuses non-numeric or ragged input, bools and strings, and NaN and
    inf entries."""
    try:
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
            if any(issubclass(t, str) for t in _element_types(values)):
                raise SchemaError("strings are not numbers")
        arr = np.array(values, dtype=np.float64)
    except (SchemaError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{what} is not a numeric array: {_clip(e, 160)}") from None
    if not np.isfinite(arr).all():
        raise SchemaError(f"{what} has non-finite entries")
    return arr


def _clean_cov(cov, what: str) -> np.ndarray:
    """Validate and repair a covariance matrix.

    Refuses non-finite entries, enforces symmetry within SYMMETRY_TOL
    (halving before adding, so no entry overflows), then clamps
    eigenvalues in [-EIG_TOL, 0) to zero.  Eigenvalues below -EIG_TOL
    raise.  Both bounds are multiplied by the scale max(1, largest |entry|).
    """
    cov = _finite(cov, what)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise SchemaError(f"{what} must be a square matrix, got {cov.shape}")
    scale = max(1.0, float(np.max(np.abs(cov), initial=0.0)))
    skew = float(np.max(np.abs(cov - cov.T), initial=0.0))
    if skew > SYMMETRY_TOL * scale:
        raise NotPSDError(f"{what} asymmetric by {skew:.3g} (> {SYMMETRY_TOL * scale:.3g})")
    cov = cov / 2.0 + cov.T / 2.0
    eigs = np.linalg.eigvalsh(cov)
    lo = float(eigs.min(initial=0.0))
    if lo < -EIG_TOL * scale:
        raise NotPSDError(f"{what} has eigenvalue {lo:.3g} below -{EIG_TOL * scale:.3g}")
    if lo < 0.0:
        vals, vecs = np.linalg.eigh(cov)
        vals = np.where(vals < 0.0, 0.0, vals)
        cov = vecs @ np.diag(vals) @ vecs.T
        cov = cov / 2.0 + cov.T / 2.0
    return cov


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """N(mean, cov) on R^d.  cov may be singular (degenerate directions
    are allowed); it just has to be symmetric PSD within tolerance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _finite(self.mean, "mean").reshape(-1)
        cov = _clean_cov(self.cov, "covariance")
        if cov.shape[0] != mean.shape[0]:
            raise SchemaError(
                f"mean has dim {mean.shape[0]} but cov is {cov.shape}")
        object.__setattr__(self, "mean", _freeze(mean))
        object.__setattr__(self, "cov", _freeze(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class AffineGaussianMap:
    """The map x -> N(Ax + b, noise) from R^n to R^m."""

    A: np.ndarray
    b: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        A = _finite(self.A, "A")
        if A.ndim != 2:
            raise SchemaError(f"A must be a matrix, got shape {A.shape}")
        b = _finite(self.b, "b").reshape(-1)
        noise = _clean_cov(self.noise, "noise covariance")
        if b.shape[0] != A.shape[0] or noise.shape[0] != A.shape[0]:
            raise SchemaError(
                f"inconsistent output dims: A {A.shape}, b {b.shape}, noise {noise.shape}")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "noise", _freeze(noise))

    @property
    def input_dim(self) -> int:
        return self.A.shape[1]

    @property
    def output_dim(self) -> int:
        return self.A.shape[0]

    def at(self, x) -> GaussianMeasure:
        """The output distribution for a fixed (noise-free) input point."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return GaussianMeasure(self.A @ x + self.b, self.noise)


def gaussians_equal(g1: GaussianMeasure, g2: GaussianMeasure,
                    tol: float = 1e-10) -> bool:
    if g1.dim != g2.dim:
        return False
    return (float(np.max(np.abs(g1.mean - g2.mean), initial=0.0)) <= tol
            and float(np.max(np.abs(g1.cov - g2.cov), initial=0.0)) <= tol)


def gauss_compose(t1: AffineGaussianMap, t2: AffineGaussianMap) -> AffineGaussianMap:
    """First t1, then t2: x -> N(A2 A1 x + A2 b1 + b2,
    A2 S1 A2' + S2)."""
    if t1.output_dim != t2.input_dim:
        raise SchemaError("maps do not compose: dimension mismatch")
    A = t2.A @ t1.A
    b = t2.A @ t1.b + t2.b
    noise = t2.A @ t1.noise @ t2.A.T + t2.noise
    return AffineGaussianMap(A, b, noise)


def gauss_pushforward(t: AffineGaussianMap, g: GaussianMeasure) -> GaussianMeasure:
    if t.input_dim != g.dim:
        raise SchemaError("measure dimension does not match map input")
    return GaussianMeasure(t.A @ g.mean + t.b, t.A @ g.cov @ t.A.T + t.noise)


def gauss_graph(t: AffineGaussianMap, g: GaussianMeasure) -> GaussianMeasure:
    """Joint of (input, output) when the input is distributed as g and
    the output is produced by t.  Input block comes first."""
    if t.input_dim != g.dim:
        raise SchemaError("measure dimension does not match map input")
    S, A = g.cov, t.A
    cross = S @ A.T
    out_cov = A @ S @ A.T + t.noise
    top = np.hstack([S, cross])
    bottom = np.hstack([cross.T, out_cov])
    mean = np.concatenate([g.mean, A @ g.mean + t.b])
    return GaussianMeasure(mean, np.vstack([top, bottom]))


def gauss_convolve(g1: GaussianMeasure, g2: GaussianMeasure) -> GaussianMeasure:
    """Distribution of the sum of independent draws."""
    if g1.dim != g2.dim:
        raise SchemaError("convolution needs equal dimensions")
    return GaussianMeasure(g1.mean + g2.mean, g1.cov + g2.cov)


def gauss_marginal(g: GaussianMeasure, indices: Sequence[int]) -> GaussianMeasure:
    idx = list(indices)
    return GaussianMeasure(g.mean[idx], g.cov[np.ix_(idx, idx)])


def gauss_swap_blocks(g: GaussianMeasure, head_dim: int) -> GaussianMeasure:
    """Reorder coordinates so the first head_dim entries move to the end."""
    if not 0 < head_dim < g.dim:
        raise SchemaError("head_dim must split the dimensions in two")
    return gauss_marginal(g, [*range(head_dim, g.dim), *range(head_dim)])


def _condition(K: np.ndarray) -> float:
    """np.linalg.cond of a symmetric matrix from one eigvalsh, without an
    SVD: max|lambda| / min|lambda|, infinite when min|lambda| = 0.  K is
    scaled by 2^-e first, e the exponent of max|K|: exact, and in range."""
    e = np.frexp(np.max(np.abs(K)))[1]
    mags = np.abs(np.linalg.eigvalsh(np.ldexp(K, -e)))
    lo = float(mags.min())
    return math.inf if lo == 0.0 else float(mags.max()) / lo


def _checked_solve(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    cond = _condition(K)
    if not math.isfinite(cond) or cond > MAX_CONDITION:
        raise SingularMatrixError(condition=cond)
    return np.linalg.solve(K, rhs)


def gauss_invert(t: AffineGaussianMap, prior: GaussianMeasure) -> AffineGaussianMap:
    """Bayesian inversion: the map y -> posterior N over the input.

    With prior N(m, S) and observation y of N(Ax + b, noise), the
    posterior is N(m + G(y - Am - b), S - G A S) with
    G = S A' (A S A' + noise)^-1.

    No jitter is ever added: a singular or too-ill-conditioned
    predictive covariance raises SingularMatrixError carrying the
    condition estimate.
    """
    if t.input_dim != prior.dim:
        raise SchemaError("prior dimension does not match map input")
    S, A = prior.cov, t.A
    K = A @ S @ A.T + t.noise
    G = _checked_solve(K, A @ S).T     # S A' K^-1
    post_A = G
    post_b = prior.mean - G @ (A @ prior.mean + t.b)
    post_cov = S - G @ A @ S
    return AffineGaussianMap(post_A, post_b, post_cov)


def gauss_condition(joint: GaussianMeasure, head_dim: int, y) -> GaussianMeasure:
    """Condition a joint N on its tail block taking the value y,
    returning the head-block conditional.

    Implemented through generic inversion of the tail-projection map,
    so it exercises the same code path as model inversion.
    """
    tail_dim = joint.dim - head_dim
    if tail_dim <= 0 or head_dim <= 0:
        raise SchemaError("head_dim must split the dimensions in two")
    proj = AffineGaussianMap(
        np.hstack([np.zeros((tail_dim, head_dim)), np.eye(tail_dim)]),
        np.zeros(tail_dim),
        np.zeros((tail_dim, tail_dim)))
    post = gauss_invert(proj, joint).at(y)
    return gauss_marginal(post, range(head_dim))


# ---------------------------------------------------------------------------
# discretization bridge

# The most cells a grid axis may have: 2.5 times the 1,600 that GridSpec.around
# makes by default.  A 2-D grid at the limit has 16.8M cells (134 MB of float
# weights), and so has discretize_model_1d's kernel between two such axes.
MAX_GRID_CELLS = 4096


@dataclass(frozen=True)
class GridSpec:
    """A regular grid of cells per axis; measures discretize onto the
    cell centers.  Supports one or two axes, of at most MAX_GRID_CELLS
    cells each."""

    lower: tuple
    upper: tuple
    step: tuple

    def __post_init__(self):
        try:
            low, up, st = (tuple(float(x) for x in np.atleast_1d(v))
                           for v in (self.lower, self.upper, self.step))
        except (TypeError, ValueError) as e:
            raise SchemaError(f"grid bounds and steps must be numbers: {_clip(e, 160)}") from None
        if not len(low) == len(up) == len(st):
            raise SchemaError("grid lower/upper/step lengths differ")
        if len(low) not in (1, 2):
            raise SchemaError("only 1-D and 2-D grids are supported")
        for lo, hi, s in zip(low, up, st):
            if not (-math.inf < lo < hi < math.inf and 0 < s
                    and (hi - lo) / s < math.inf):      # NaN fails too
                raise SchemaError("grid needs finite bounds with upper > lower, and "
                                  "a step > 0 that gives a finite cell count")
            cells = (hi - lo) / s
            if round(cells) > MAX_GRID_CELLS:
                raise SchemaError(f"grid axis of {cells:.6g} cells, over the "
                                  f"limit of {MAX_GRID_CELLS} per axis")
            if round(cells) < 1:
                raise SchemaError(f"grid axis has no cells: {cells:.6g} cells round to 0")
        object.__setattr__(self, "lower", low)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "step", st)

    @property
    def ndim(self) -> int:
        return len(self.lower)

    def centers(self, axis: int) -> np.ndarray:
        lo, hi, s = self.lower[axis], self.upper[axis], self.step[axis]
        count = int(round((hi - lo) / s))
        return lo + (np.arange(count) + 0.5) * s

    @classmethod
    def around(cls, center, sigma, half_width_sigmas: float = 8.0,
               step_sigmas: float = 0.01) -> "GridSpec":
        """A grid covering center +- half_width_sigmas * sigma with
        step step_sigmas * sigma on each axis."""
        c = np.atleast_1d(np.asarray(center, dtype=np.float64))
        s = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
        if (s <= 0).any():
            raise SchemaError("grid sigma must be positive")
        return cls(tuple(c - half_width_sigmas * s),
                   tuple(c + half_width_sigmas * s),
                   tuple(step_sigmas * s))


def _coverage_check(g: GaussianMeasure, grid: GridSpec) -> None:
    """Documented coarseness thresholds: the grid must reach 3 standard
    deviations past the mean on each side and resolve each axis with a
    step of at most half a standard deviation."""
    for axis in range(grid.ndim):
        sd = math.sqrt(g.cov[axis, axis])
        if sd <= 0:
            raise GridError("cannot discretize a degenerate axis "
                            f"(zero variance on axis {axis})")
        mu = g.mean[axis]
        if grid.lower[axis] > mu - 3 * sd or grid.upper[axis] < mu + 3 * sd:
            raise GridError(
                f"grid axis {axis} spans [{grid.lower[axis]:.6g}, "
                f"{grid.upper[axis]:.6g}] but needs to cover "
                f"[{mu - 3 * sd:.6g}, {mu + 3 * sd:.6g}]")
        if grid.step[axis] > sd / 2:
            raise GridError(
                f"grid step {grid.step[axis]:.6g} on axis {axis} is coarser "
                f"than half a standard deviation ({sd / 2:.6g})")


def _density_rows(centers: np.ndarray, means, var: float) -> np.ndarray:
    """N(mean, var) densities at the cell centers normalized to mass one:
    one row per mean, 1-D for a scalar mean.  Frozen, so the value
    classes take it without a copy."""
    z = centers - np.asarray(means)[..., None]
    z /= math.sqrt(var)
    rows = z * -0.5
    rows *= z
    del z
    np.exp(rows, out=rows)
    totals = rows.sum(axis=-1)
    if not (totals > 0).all():
        raise GridError("grid catches no probability mass")
    rows /= totals[..., None]
    return _freeze(rows)


def gauss_discretize(g: GaussianMeasure, grid: GridSpec,
                     strict: bool = True) -> FiniteMeasure:
    """Project a Gaussian onto a finite measure on grid cell centers.

    Weights are the density at the centers, renormalized to total mass
    one.  With ``strict`` (the default) the grid must satisfy the
    coverage and resolution thresholds; pass strict=False to discretize
    tail slices where coverage is intentionally partial.
    """
    if g.dim != grid.ndim:
        raise SchemaError(
            f"grid has {grid.ndim} axes but the measure has dim {g.dim}")
    if strict:
        _coverage_check(g, grid)
    det = float(np.linalg.det(g.cov))
    if det <= 0:
        raise GridError("cannot discretize: covariance is singular")
    if grid.ndim == 1:
        centers = grid.centers(0)
        return prob_measure(FiniteSpace(tuple(float(c) for c in centers)),
                            _density_rows(centers, g.mean[0], g.cov[0, 0]))
    c0, c1 = grid.centers(0), grid.centers(1)
    mesh = np.stack(np.meshgrid(c0, c1, indexing="ij"), axis=-1)
    diff = mesh.reshape(-1, 2) - g.mean
    sol = np.linalg.solve(g.cov, diff.T)
    quad = np.einsum("ij,ji->i", diff, sol)
    dens = np.exp(-0.5 * (quad - quad.min()))
    ax0 = FiniteSpace(tuple(float(c) for c in c0))
    ax1 = FiniteSpace(tuple(float(c) for c in c1))
    space = product_space([ax0, ax1])
    # dens is exp(0) = 1 where quad is smallest, so the total is at least 1.
    return prob_measure(space, _freeze(dens / dens.sum()))


def discretize_model_1d(prior: GaussianMeasure, t: AffineGaussianMap,
                        half_width_sigmas: float = 8.0,
                        step_sigmas: float = 0.01) -> BayesModel:
    """Turn a one-dimensional Gaussian model into a finite one.

    The parameter grid covers the prior, the observation grid covers
    the predictive; each sampling row is the discretized output
    distribution at the parameter cell center (tail rows clip off-grid
    mass, which carries negligible prior weight).
    """
    if prior.dim != 1 or t.input_dim != 1 or t.output_dim != 1:
        raise SchemaError("this bridge handles 1-D models only")
    pgrid = GridSpec.around(prior.mean[0], math.sqrt(prior.cov[0, 0]),
                            half_width_sigmas, step_sigmas)
    prior_m = gauss_discretize(prior, pgrid)
    pred = gauss_pushforward(t, prior)
    ogrid = GridSpec.around(pred.mean[0], math.sqrt(pred.cov[0, 0]),
                            half_width_sigmas, step_sigmas)
    _coverage_check(pred, ogrid)
    obs_space = FiniteSpace(tuple(float(c) for c in ogrid.centers(0)))
    # Row c is gauss_discretize(t.at([c]), ogrid, strict=False), computed
    # for all parameter cells at once by the same helper.
    noise = float(t.noise[0, 0])
    if noise <= 0:
        raise GridError("cannot discretize: covariance is singular")
    means = t.A[0, 0] * pgrid.centers(0) + t.b[0]
    rows = _density_rows(ogrid.centers(0), means, noise)
    return BayesModel(prior=prior_m,
                      sampling=finite_kernel(prior_m.space, obs_space, rows))
