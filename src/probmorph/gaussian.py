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

from .errors import GridError, NotPSDError, NumericalError, SchemaError, SingularMatrixError, _clip
from .measures import FiniteMeasure, FiniteSpace, _element_types, _freeze, product_space
from .kernels import FiniteKernel
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


def _check_range(what: str, *arrays: np.ndarray) -> None:
    """Refuse a result that left the float range: the closed forms compute
    with overflow warnings off, and an overflow shows as inf or NaN."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"{what} overflows the float range")


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


@np.errstate(over="ignore", invalid="ignore")
def gauss_compose(t1: AffineGaussianMap, t2: AffineGaussianMap) -> AffineGaussianMap:
    """First t1, then t2: x -> N(A2 A1 x + A2 b1 + b2,
    A2 S1 A2' + S2)."""
    if t1.output_dim != t2.input_dim:
        raise SchemaError("maps do not compose: dimension mismatch")
    A = t2.A @ t1.A
    b = t2.A @ t1.b + t2.b
    noise = t2.A @ t1.noise @ t2.A.T + t2.noise
    _check_range("the composite map", A, b, noise)
    return AffineGaussianMap(A, b, noise)


@np.errstate(over="ignore", invalid="ignore")
def gauss_pushforward(t: AffineGaussianMap, g: GaussianMeasure) -> GaussianMeasure:
    if t.input_dim != g.dim:
        raise SchemaError("measure dimension does not match map input")
    mean, cov = t.A @ g.mean + t.b, t.A @ g.cov @ t.A.T + t.noise
    _check_range("the pushforward", mean, cov)
    return GaussianMeasure(mean, cov)


@np.errstate(over="ignore", invalid="ignore")
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
    _check_range("the joint", mean, cross, out_cov)
    return GaussianMeasure(mean, np.vstack([top, bottom]))


@np.errstate(over="ignore", invalid="ignore")
def gauss_convolve(g1: GaussianMeasure, g2: GaussianMeasure) -> GaussianMeasure:
    """Distribution of the sum of independent draws."""
    if g1.dim != g2.dim:
        raise SchemaError("convolution needs equal dimensions")
    mean, cov = g1.mean + g2.mean, g1.cov + g2.cov
    _check_range("the convolution", mean, cov)
    return GaussianMeasure(mean, cov)


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


@np.errstate(over="ignore", invalid="ignore")
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
    _check_range("the predictive covariance", K)
    G = _checked_solve(K, A @ S).T     # S A' K^-1
    post_b = prior.mean - G @ (A @ prior.mean + t.b)
    post_cov = S - G @ A @ S
    _check_range("the inverse map", G, post_b, post_cov)
    return AffineGaussianMap(G, post_b, post_cov)


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
# weights).  discretize_model refuses a kernel of more entries than that, the
# most a 1-D parameter can make: a 2-D one at the default steps would need
# 1,600^2 x 1,600.
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


def _resolution_check(step: float, var: float, what: str) -> None:
    """At most one grid step per standard deviation of a conditional,
    which a grid that resolves each marginal may still alias."""
    if step > math.sqrt(var):
        raise GridError(f"grid step {step:.6g} is coarser than the standard "
                        f"deviation of {what} ({math.sqrt(var):.6g})")


def _whitened(centers: np.ndarray, means, var: float) -> np.ndarray:
    """(centers - mean) / sqrt(var): one row per mean, 1-D for a scalar mean."""
    z = centers - np.asarray(means)[..., None]
    z /= math.sqrt(var)
    return z


def _density_rows(*z: np.ndarray) -> np.ndarray:
    """exp(-|z|^2 / 2) at the fresh whitened offsets ``z`` (one array per
    axis), in the buffer of z[0] and normalized along the last axis; halving
    the summed squares once is exact, so it gives the bits of halving each.
    The value classes take these rows frozen, unchecked and uncopied, and
    BayesModel still checks a prior: each value is in [0, 1], a row total
    not > 0 (NaN too) is refused and each row is divided by its total."""
    rows = np.square(z[0], out=z[0])
    for zi in z[1:]:
        rows += np.square(zi, out=zi)
    rows *= -0.5
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
    c0 = grid.centers(0)
    z = (_whitened(c0, g.mean[0], g.cov[0, 0]),)
    space = FiniteSpace(tuple(c0.tolist()))
    if grid.ndim == 2:
        # axis 1 given axis 0 is N(m1 + beta (x0 - m0), det / c00); the
        # grid is flattened, first axis slowest, so one row is all of it
        c1, beta, var1 = grid.centers(1), g.cov[0, 1] / g.cov[0, 0], det / g.cov[0, 0]
        if strict:
            _resolution_check(grid.step[1], var1, "axis 1 given axis 0")
        z1 = _whitened(c1, g.mean[1] + beta * (c0 - g.mean[0]), var1)
        z = (np.repeat(z[0], c1.size), z1.ravel())
        space = product_space([space, FiniteSpace(tuple(c1.tolist()))])
    return FiniteMeasure(space, _density_rows(*z))


def discretize_model(prior: GaussianMeasure, t: AffineGaussianMap,
                     half_width_sigmas: float = 8.0,
                     step_sigmas: float = 0.01) -> BayesModel:
    """Turn a Gaussian model of a 1- or 2-D parameter and a 1-D
    observation into a finite one.

    The parameter grid covers the prior, the observation grid covers
    the predictive; each sampling row is the discretized output
    distribution at the parameter cell center (tail rows clip off-grid
    mass, which carries negligible prior weight).  A kernel of more
    than MAX_GRID_CELLS**2 entries is refused before it is built.
    """
    if t.output_dim != 1:
        raise SchemaError("this bridge needs a 1-D observation")
    pred = gauss_pushforward(t, prior)
    pgrid, ogrid = (GridSpec.around(g.mean, np.sqrt(np.diag(g.cov)),
                                    half_width_sigmas, step_sigmas) for g in (prior, pred))
    axes, obs = [pgrid.centers(i) for i in range(pgrid.ndim)], ogrid.centers(0)
    cells = math.prod(a.size for a in axes)
    if cells * obs.size > MAX_GRID_CELLS ** 2:
        raise SchemaError(f"a kernel of {cells} x {obs.size} cells, over the limit "
                          f"of {MAX_GRID_CELLS ** 2} entries")
    prior_m = gauss_discretize(prior, pgrid)
    _coverage_check(pred, ogrid)
    # Row p is gauss_discretize(t.at(cell p), ogrid, strict=False), for all p at once.
    if t.noise[0, 0] <= 0:
        raise GridError("cannot discretize: covariance is singular")
    _resolution_check(ogrid.step[0], t.noise[0, 0], "the observation given the parameter")
    mesh = np.meshgrid(*axes, indexing="ij")
    means = sum(a * x.ravel() for a, x in zip(t.A[0], mesh)) + t.b[0]
    rows = _density_rows(_whitened(obs, means, t.noise[0, 0]))
    return BayesModel(prior_m, FiniteKernel(prior_m.space, FiniteSpace(tuple(obs.tolist())), rows))


discretize_model_1d = discretize_model      # the old name, which bench/workloads.py calls
