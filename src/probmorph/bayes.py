"""Disintegration of joint measures and Bayesian inversion of models.

A model is a prior together with a sampling kernel.  Its inversion is
the kernel running the other way, recovering conditional probabilities
of parameters given observations.  On observation points with zero
predictive mass the inverse row is conventionally the prior, and those
points are reported explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .measures import (
    DEFAULT_TOLERANCE,
    FiniteMeasure,
    FiniteSpace,
    _one_of,
    arrays_equal,
    prob_measure,
    product_space,
    require_same_scalar,
)
from .kernels import FiniteKernel, compose, mirror, pushforward


@dataclass(frozen=True, eq=False)
class BayesModel:
    """A prior on a parameter space plus a sampling kernel into the
    observation space."""

    prior: FiniteMeasure
    sampling: FiniteKernel

    def __post_init__(self):
        if self.prior.space != self.sampling.source:
            raise SchemaError("prior space must equal the sampling source")
        require_same_scalar(self.prior, self.sampling)
        if not self.prior.is_probability():
            raise SchemaError("prior must be a probability measure")

    @property
    def parameters(self) -> FiniteSpace:
        return self.prior.space

    @property
    def observations(self) -> FiniteSpace:
        return self.sampling.target

    @property
    def scalar(self) -> str:
        return self.prior.scalar

    def as_float(self) -> "BayesModel":
        return BayesModel(self.prior.as_float(), self.sampling.as_float())


@dataclass(frozen=True)
class InversionResult:
    """The inverted kernel plus the observation labels that carry zero
    predictive mass (where the inverse row defaults to the prior)."""

    kernel: FiniteKernel
    null_points: tuple


def _graph_pushforward(t: FiniteKernel, m: FiniteMeasure) -> FiniteMeasure:
    """m pushed through the graph of t: the joint m(x) t(y|x) on
    source x target, without building the graph's dense rows."""
    require_same_scalar(t, m)
    w = (m.weights[:, None] * t.rows).reshape(-1)
    return FiniteMeasure(product_space([t.source, t.target]), w)


def joint_measure(model: BayesModel) -> FiniteMeasure:
    """The joint over parameters x observations induced by the model."""
    return _graph_pushforward(model.sampling, model.prior)


def predictive_measure(model: BayesModel) -> FiniteMeasure:
    """The marginal over observations (prior pushed through sampling)."""
    return pushforward(model.sampling, model.prior)


def _conditionals(w: np.ndarray, fallback) -> tuple:
    """The conditioning step: each row of ``w`` divided by its mass, and
    ``fallback`` in the rows of zero mass, with the mask of those rows."""
    mass = w.sum(axis=1)
    null = mass == 0
    rows = w / np.where(null, 1, mass)[:, None]
    rows[null] = fallback
    return rows, null


def disintegrate(mu: FiniteMeasure) -> FiniteKernel:
    """Conditional kernel of the second factor given the first.

    ``mu`` is a nonnegative measure on a binary product X x Y.  Row x is
    mu(x, .) renormalized; on first-marginal null points the row is
    uniform on Y (any probability row there yields the same joint).
    Pushing the first marginal through the graph of the result
    reconstructs ``mu`` exactly.
    """
    factors = mu.space.require_factors()
    if len(factors) != 2:
        raise SchemaError("disintegration needs a binary product space")
    if not mu.is_nonnegative():
        raise SchemaError("disintegration needs a nonnegative measure")
    xs, ys = factors
    rows, _ = _conditionals(mu.weights.reshape(xs.size, ys.size), _one_of(mu.scalar) / ys.size)
    return FiniteKernel(xs, ys, rows)


def bayes_invert(model: BayesModel) -> InversionResult:
    """Invert the model: the returned kernel maps each observation to
    the conditional distribution over parameters.

    Where the predictive measure vanishes the row is the prior, and the
    label is listed in ``null_points``.
    """
    # The joint (x, theta), conditioned on x; its row masses are the predictive.
    rows, null = _conditionals(model.sampling.rows.T * model.prior.weights,
                               model.prior.weights)
    kernel = FiniteKernel(model.observations, model.parameters, rows)
    labels = model.observations.labels
    return InversionResult(kernel=kernel,
                           null_points=tuple(labels[j] for j in np.flatnonzero(null)))


def verify_inversion(model: BayesModel, q: FiniteKernel,
                     tol: float = DEFAULT_TOLERANCE) -> bool:
    """Check the defining identity of the inversion: transporting the
    predictive measure along the graph of ``q`` and swapping factors
    reproduces the model's joint measure.
    """
    if q.source != model.observations or q.target != model.parameters:
        raise SchemaError("candidate kernel has the wrong spaces")
    lhs = mirror(_graph_pushforward(q, predictive_measure(model)))
    rhs = joint_measure(model)
    scalar = require_same_scalar(lhs, rhs)
    return arrays_equal(lhs.weights, rhs.weights, scalar, tol)


def ae_equal(t1: FiniteKernel, t2: FiniteKernel, mu: FiniteMeasure,
             tol: float = DEFAULT_TOLERANCE) -> bool:
    """Almost-everywhere equality: rows agree (exactly, or within tol
    on the float backend) at every label with positive mu-mass."""
    if t1.source != t2.source or t1.target != t2.target:
        return False
    if mu.space != t1.source:
        raise SchemaError("reference measure lives on the wrong space")
    scalar = require_same_scalar(t1, t2, mu)
    pos = mu.weights > 0
    return arrays_equal(t1.rows[pos], t2.rows[pos], scalar, tol)


def invert_composition(model: BayesModel, p2: FiniteKernel) -> FiniteKernel:
    """Inverse of the composite p2 after model.sampling, computed by
    chaining the stagewise inverses: invert p2 at the intermediate
    predictive, then the original model, and compose the two."""
    q1 = bayes_invert(model).kernel
    mid = prob_measure(model.observations, predictive_measure(model).weights)
    q2 = bayes_invert(BayesModel(prior=mid, sampling=p2)).kernel
    return compose(q2, q1)
