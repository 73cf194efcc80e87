"""Supervised models: priors over labeling hypotheses, conditioning on
training pairs, and predictive distributions on test inputs.

The finite side pairs a prior over hypotheses with one label
distribution per (hypothesis, input), all in one array; observations at
a tuple of inputs are conditionally independent given the hypothesis.
The Gaussian-process side does the analogous computation in closed form
on R^d and can be cross-checked against generic Gaussian conditioning.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, SchemaError, _clip
from .measures import (
    FiniteMeasure,
    FiniteSpace,
    _as_float_array,
    _checked_measure,
    _freeze,
    _normalized_rows,
    _product,
    _stochastic_rows,
    measures_equal,
    product_space,
    require_same_scalar,
)
from .kernels import FiniteKernel, marginal, pushforward
from .gaussian import GaussianMeasure, _checked_solve


@dataclass(frozen=True, eq=False)
class SupervisedModel:
    """A prior over hypotheses plus ``rows[h, x]``, the distribution on
    ``labels`` of hypothesis h at input x, in one validated frozen array."""

    prior: FiniteMeasure
    inputs: FiniteSpace
    labels: FiniteSpace
    rows: np.ndarray

    def __post_init__(self):
        shape = (self.prior.space.size, self.inputs.size, self.labels.size)
        rows = _stochastic_rows(self.rows, shape, "supervisor")
        require_same_scalar(self.prior, rows)
        object.__setattr__(self, "prior",
                           _checked_measure(self.prior, "prior", "prior weights"))
        object.__setattr__(self, "rows", _freeze(rows))

    @property
    def hypotheses(self) -> FiniteSpace:
        return self.prior.space

    @property
    def scalar(self) -> str:
        return self.prior.scalar

    def as_float(self) -> "SupervisedModel":
        return SupervisedModel(self.prior.as_float(), self.inputs, self.labels,
                               _as_float_array(self.rows))


@dataclass(frozen=True)
class TrainingSet:
    """An ordered tuple of (input, label) pairs, each given as a tuple or
    a list of length 2.  May be empty."""

    pairs: tuple

    def __post_init__(self):
        try:
            pairs = tuple(self.pairs)
        except TypeError:
            pairs = (None,)
        if not all(isinstance(p, (tuple, list)) and len(p) == 2 for p in pairs):
            raise SchemaError(f"expected (input, label) pairs, got {_clip(self.pairs)}")
        object.__setattr__(self, "pairs", tuple(map(tuple, pairs)))

    @property
    def inputs(self) -> tuple:
        return tuple(x for x, _ in self.pairs)

    @property
    def outputs(self) -> tuple:
        return tuple(y for _, y in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class TestInputs:
    """A nonempty ordered tuple of query inputs."""

    __test__ = False          # not a pytest class, despite the name

    points: tuple

    def __post_init__(self):
        if not isinstance(self.points, tuple):
            object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) == 0:
            raise SchemaError("test inputs must be nonempty")

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class InferenceResult:
    """A measure plus a flag marking that the conditioning event had
    zero mass (in which case the measure fell back to the prior)."""

    measure: FiniteMeasure
    null_evidence: bool


def _require_inputs(model: SupervisedModel, xs: tuple) -> None:
    for x in xs:
        if x not in model.inputs:
            raise SchemaError(f"input {_clip(x)} not in the model's input space")


# The most entries (hypotheses x label tuples) a sampling kernel may have:
# a rational predictive of 2**20 entries (4 hypotheses, 18 binary test
# points) takes about 4 s and 0.3 GB on a 2-CPU VM, and every further test
# point multiplies that by the label count.
MAX_JOINT_ENTRIES = 2 ** 20


def sampling_kernel(model: SupervisedModel, xs: Sequence) -> FiniteKernel:
    """The kernel from hypotheses to label tuples at the given inputs.

    Row theta is the product of the model's rows (theta, x_1..x_m):
    labels are conditionally independent given the hypothesis.  With a
    single input the target is the label space itself (no 1-tuples).
    The rows are products of validated rows, so they are not validated
    again (on floats that would compound the row-sum tolerance).
    Kernels of more than MAX_JOINT_ENTRIES entries are refused.
    """
    xs = tuple(xs)
    if len(xs) == 0:
        raise SchemaError("need at least one input point")
    _require_inputs(model, xs)
    n_h, n_y = model.hypotheses.size, model.labels.size
    if n_h * n_y ** len(xs) > MAX_JOINT_ENTRIES:
        raise SchemaError(
            f"the joint over {len(xs)} input points has {n_h} x {n_y}^{len(xs)} "
            f"entries, over the limit of {MAX_JOINT_ENTRIES}")
    sup = model.rows[:, [model.inputs.index(x) for x in xs], :]
    m = len(xs)
    # Factor j varies along axis j + 1: product_measure's order.
    rows = _product(*(sup[:, j].reshape(n_h, *[1] * j, n_y, *[1] * (m - 1 - j))
                      for j in range(m)))
    target = product_space([model.labels] * m)
    return FiniteKernel(model.hypotheses, target, rows.reshape(n_h, -1))


def _observation_label(ys: tuple):
    return ys[0] if len(ys) == 1 else tuple(ys)


def _likelihood(model: SupervisedModel, s: TrainingSet) -> np.ndarray:
    """prod_i rows[theta, x_i, y_i] for every hypothesis theta,
    multiplied left to right in the order product_measure uses.

    On the float backend the result is known only up to a positive
    power-of-two factor, which normalization cancels exactly.
    """
    xi = [model.inputs.index(x) for x in s.inputs]
    yi = [model.labels.index(y) for y in s.outputs]
    return _product(*model.rows[:, xi, yi].T, rescale=True)


def posterior(model: SupervisedModel, s: TrainingSet) -> InferenceResult:
    """Condition the prior on the training pairs: prior times the
    likelihood of every pair, normalized.  Linear in the number of pairs.

    An empty training set returns the prior untouched.  If the observed
    label tuple has zero marginal probability the result equals the
    prior, with null_evidence set.
    """
    if len(s) == 0:
        return InferenceResult(model.prior, False)
    ys = s.outputs
    bad = next((i for i, y in enumerate(ys) if y not in model.labels), None)
    if bad is not None:
        raise SchemaError(
            f"observed labels {_clip(_observation_label(ys))} outside the label "
            f"space: pair {bad} has label {_clip(ys[bad])}")
    _require_inputs(model, s.inputs)
    prior = model.prior.weights
    rows, null = _normalized_rows(_likelihood(model, s)[None], prior, scale=prior)
    return InferenceResult(FiniteMeasure(model.hypotheses, rows[0]), bool(null[0]))


def predictive(model: SupervisedModel, s: TrainingSet,
               t: TestInputs) -> InferenceResult:
    """Posterior-predictive joint over the label tuple at the test
    inputs: push the posterior through the test-point sampling kernel."""
    post = posterior(model, s)
    sk = sampling_kernel(model, t.points)
    return InferenceResult(pushforward(sk, post.measure), post.null_evidence)


def label_marginals(joint: FiniteMeasure) -> tuple:
    """Per-coordinate marginals of a joint over a label tuple space.
    A measure on a non-product space is its own single marginal."""
    if joint.space.factors is None:
        return (joint,)
    return tuple(marginal(joint, i)
                 for i in range(len(joint.space.factors)))


def restrict_inputs(model: SupervisedModel, keep: Sequence) -> SupervisedModel:
    """The same model on a subset of the input space (the rows of the
    other inputs dropped, label space unchanged)."""
    keep = tuple(keep)
    idx = [model.inputs.index(x) for x in keep]
    return SupervisedModel(model.prior, FiniteSpace(keep), model.labels,
                           model.rows[:, idx])


def restriction_consistency(model: SupervisedModel, s: TrainingSet,
                            t: TestInputs, tol: float = 1e-9) -> bool:
    """Conditioning and predicting only ever touch the rows at the
    queried inputs, so restricting the model to the inputs that
    appear in s and t must change neither posterior nor predictive."""
    used = set(s.inputs) | set(t.points)
    keep = tuple(x for x in model.inputs.labels if x in used)
    small = restrict_inputs(model, keep)
    p_full, p_small = posterior(model, s), posterior(small, s)
    q_full, q_small = predictive(model, s, t), predictive(small, s, t)
    return (p_full.null_evidence == p_small.null_evidence
            and q_full.null_evidence == q_small.null_evidence
            and measures_equal(p_full.measure, p_small.measure, tol)
            and measures_equal(q_full.measure, q_small.measure, tol))


# ---------------------------------------------------------------------------
# Gaussian-process regression

@dataclass(frozen=True)
class GPModel:
    """A Gaussian process prior: mean function, covariance function and
    observation noise variance.

    Both functions take input arrays: ``mean_fn(X)`` maps an (n, d)
    float array to the (n,) mean vector, and ``cov_fn(X, Y)`` maps (n, d)
    and (m, d) arrays to the (n, m) Gram block."""

    mean_fn: Callable
    cov_fn: Callable
    noise_var: float

    def __post_init__(self):
        if not (isinstance(self.noise_var, numbers.Real)
                and 0 <= self.noise_var <= sys.float_info.max):   # NaN fails too
            raise SchemaError("noise variance must be finite and nonnegative")


def zero_mean():
    return lambda X: np.zeros(len(X))


def constant_mean(c: float):
    """The mean function with the value c everywhere; c must be a finite real."""
    if not (isinstance(c, numbers.Real) and abs(c) <= sys.float_info.max):   # NaN fails too
        raise SchemaError(f"constant mean {_clip(c)} is not a finite real number")
    c = float(c)
    return lambda X: np.full(len(X), c)


def squared_exponential(length_scale: float = 1.0, amplitude: float = 1.0):
    """k(x, x') = amplitude^2 * exp(-|x - x'|^2 / (2 length_scale^2)) as
    the Gram block ``k(X, Y)`` over (n, d) and (m, d) input arrays.

    2 length_scale^2 must be a positive float and amplitude^2 a finite
    one; amplitude^2 may underflow to 0.  A scaled squared distance that
    overflows gives the limit exp(-inf) = 0, without a warning."""
    if not all(isinstance(v, numbers.Real) and 0 < v <= sys.float_info.max
               for v in (length_scale, amplitude)):
        raise SchemaError("length_scale and amplitude must be positive and finite")
    two_l2 = 2.0 * length_scale * length_scale
    a2 = float(amplitude) * amplitude         # a float, also for an int amplitude
    if not (0 < two_l2 < math.inf and a2 < math.inf):
        raise SchemaError(
            f"length_scale {_clip(length_scale)} and amplitude {_clip(amplitude)} "
            "give 2 length_scale^2 or amplitude^2 outside the float range")

    def k(X, Y):
        with np.errstate(over="ignore"):
            d = X[:, None, :] - Y[None, :, :]
            d *= d
            sq = d.sum(axis=-1)
            np.negative(sq, out=sq)
            sq /= two_l2
            np.exp(sq, out=sq)
            sq *= a2
        return sq

    return k


def _input_array(xs) -> np.ndarray:
    """Inputs as an (n, d) float array; scalar inputs give d = 1."""
    a = np.asarray(xs, dtype=np.float64)
    return a[:, None] if a.ndim == 1 else a


def _gp_blocks(gp: GPModel, train_xs, test_xs) -> tuple:
    """m(T), m(X), K(T,T), K(T,X) and C = K(X,X) + noise_var * I for the
    test inputs T and the training inputs X."""
    T, X = _input_array(test_xs), _input_array(train_xs)
    C = gp.cov_fn(X, X) + gp.noise_var * np.eye(len(X))
    return gp.mean_fn(T), gp.mean_fn(X), gp.cov_fn(T, T), gp.cov_fn(T, X), C


def gp_joint(gp: GPModel, train_xs: Sequence, test_xs: Sequence) -> GaussianMeasure:
    """The joint Gaussian over (test values, noisy training outputs).

    Test block first; observation noise enters only the training block.
    Gram matrices that are not PSD within tolerance are rejected by the
    measure constructor.
    """
    if len(train_xs) == 0 or len(test_xs) == 0:
        raise SchemaError("need at least one training and one test input")
    mt, mx, ktt, ktx, C = _gp_blocks(gp, train_xs, test_xs)
    cov = np.vstack([np.hstack([ktt, ktx]),
                     np.hstack([ktx.T, C])])
    return GaussianMeasure(np.concatenate([mt, mx]), cov)


def gp_posterior_predictive(gp: GPModel, s: TrainingSet, t: TestInputs,
                            jitter: float = 0.0) -> GaussianMeasure:
    """Closed-form posterior predictive at the test inputs:

    mean  = m(T) + K(T,X) C^-1 (Y - m(X))
    cov   = K(T,T) - K(T,X) C^-1 K(X,T)

    with C = K(X,X) + noise_var * I (+ optional explicit jitter, which
    must be finite and nonnegative).  A mean or covariance that leaves
    the float range raises NumericalError.
    """
    if not (isinstance(jitter, numbers.Real) and 0 <= jitter <= sys.float_info.max):
        raise SchemaError(f"jitter {_clip(jitter)} must be finite and nonnegative")
    if len(s) == 0:
        raise SchemaError("posterior predictive needs training data")
    mt, mx, ktt, ktx, C = _gp_blocks(gp, s.inputs, t.points)
    if jitter > 0.0:
        C = C + jitter * np.eye(len(C))
    # Overflow shows as inf or NaN in the result, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.asarray(s.outputs, dtype=np.float64) - mx
        alpha = _checked_solve(C, resid)
        # C is checked once.  Two solves, not one stacked solve: stacking
        # the right-hand sides changes the mean in the last bit.
        gain = np.linalg.solve(C, ktx.T)
        mean = mt + ktx @ alpha
        cov = ktt - ktx @ gain
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise NumericalError("the posterior predictive overflows the float range")
    return GaussianMeasure(mean, cov)
