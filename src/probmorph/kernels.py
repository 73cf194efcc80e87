"""Probabilistic transitions between finite spaces and their algebra.

A kernel is stored as a row-stochastic matrix: row x is the probability
measure the kernel assigns to source point x.  Deterministic maps embed
as one-hot kernels.  Composition, pushforward of measures, pullback of
observables, independent joins, graphs and mirroring all reduce to
dense array arithmetic, exact on the rational backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NonProductSpaceError, SchemaError
from .measures import (
    DEFAULT_TOLERANCE,
    RATIONAL,
    BoundedFunction,
    FiniteMeasure,
    FiniteSpace,
    _as_float_array,
    _freeze,
    _matmul,
    _one_of,
    _row_sums,
    _scalar_of_dtype,
    _stochastic_rows,
    arrays_equal,
    product_space,
    require_same_scalar,
    zeros_like_backend,
)


@dataclass(frozen=True)
class MeasurableMap:
    """A function between finite spaces, given by one target label per
    source label (in source order)."""

    source: FiniteSpace
    target: FiniteSpace
    assignment: tuple
    # The target index of each assigned label, looked up once.
    _cols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.assignment, tuple):
            object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != self.source.size:
            raise SchemaError("assignment length must match source size")
        try:
            cols = [self.target._index[lab] for lab in self.assignment]
        except (KeyError, TypeError):
            lab = next(lab for lab in self.assignment if lab not in self.target)
            raise SchemaError(f"assignment value {lab!r} not in target space") from None
        object.__setattr__(self, "_cols", _freeze(np.array(cols, dtype=np.intp)))

    def __call__(self, label):
        return self.assignment[self.source.index(label)]


def identity_map(space: FiniteSpace) -> MeasurableMap:
    return MeasurableMap(space, space, space.labels)


def map_compose(f: MeasurableMap, g: MeasurableMap) -> MeasurableMap:
    """The map x -> g(f(x))."""
    if f.target != g.source:
        raise SchemaError("maps do not compose: target/source mismatch")
    return MeasurableMap(f.source, g.target, tuple(g.assignment[j] for j in f._cols))


def projection_map(prod: FiniteSpace, axis: int) -> MeasurableMap:
    """Coordinate projection out of a product space."""
    factors = prod.require_factors()
    if not 0 <= axis < len(factors):
        raise SchemaError(f"axis {axis} out of range for {len(factors)} factors")
    return MeasurableMap(prod, factors[axis],
                         tuple(lab[axis] for lab in prod.labels))


@dataclass(frozen=True, eq=False)
class FiniteKernel:
    """A probabilistic transition: one probability row per source label."""

    source: FiniteSpace
    target: FiniteSpace
    rows: np.ndarray

    def __post_init__(self):
        shape = getattr(self.rows, "shape", None)
        if shape != (self.source.size, self.target.size):
            raise SchemaError(f"expected rows of shape "
                              f"{(self.source.size, self.target.size)}, got {shape}")
        _freeze(self.rows)

    @property
    def scalar(self) -> str:
        return _scalar_of_dtype(self.rows)

    def row(self, label) -> FiniteMeasure:
        return FiniteMeasure(self.target, self.rows[self.source.index(label)])

    def as_float(self) -> "FiniteKernel":
        return FiniteKernel(self.source, self.target, _as_float_array(self.rows))


def finite_kernel(source: FiniteSpace, target: FiniteSpace, rows,
                  scalar: str | None = None) -> FiniteKernel:
    """Validate and build a kernel: every row must be a probability vector."""
    return FiniteKernel(source, target,
                        _stochastic_rows(rows, (source.size, target.size), "kernel", scalar))


def kernels_equal(t1: FiniteKernel, t2: FiniteKernel,
                  tol: float = DEFAULT_TOLERANCE) -> bool:
    if t1.source != t2.source or t1.target != t2.target:
        return False
    scalar = require_same_scalar(t1, t2)
    return arrays_equal(t1.rows, t2.rows, scalar, tol)


def dirac_kernel(f: MeasurableMap, scalar: str = RATIONAL) -> FiniteKernel:
    """Embed a deterministic map as a kernel of point masses."""
    rows = zeros_like_backend((f.source.size, f.target.size), scalar)
    rows[np.arange(f.source.size), f._cols] = _one_of(scalar)
    return FiniteKernel(f.source, f.target, rows)


def identity_kernel(space: FiniteSpace, scalar: str = RATIONAL) -> FiniteKernel:
    return dirac_kernel(identity_map(space), scalar)


def compose(t1: FiniteKernel, t2: FiniteKernel) -> FiniteKernel:
    """First t1, then t2.  Rows multiply as row-stochastic matrices."""
    if t1.target != t2.source:
        raise SchemaError("kernels do not compose: target/source mismatch")
    require_same_scalar(t1, t2)
    return FiniteKernel(t1.source, t2.target, _matmul(t1.rows, t2.rows))


def pushforward(t: FiniteKernel, m: FiniteMeasure) -> FiniteMeasure:
    """The image measure: (t_* m)(y) = sum_x t(y|x) m(x).  Linear in m,
    so signed measures are allowed; probability mass is preserved."""
    if m.space != t.source:
        raise SchemaError("measure lives on the wrong space for this kernel")
    require_same_scalar(t, m)
    return FiniteMeasure(t.target, _matmul(m.weights, t.rows))


def pullback(t: FiniteKernel, g: BoundedFunction) -> BoundedFunction:
    """Averaged observable: (t^* g)(x) = sum_y g(y) t(y|x).  Sends the
    constant-one function to the constant-one function and never
    increases the sup norm."""
    if g.space != t.target:
        raise SchemaError("function lives on the wrong space for this kernel")
    require_same_scalar(t, g)
    return BoundedFunction(t.source, _matmul(t.rows, g.values))


def join(t1: FiniteKernel, t2: FiniteKernel) -> FiniteKernel:
    """Pointwise-independent coupling: source x goes to the product
    measure row_1(x) x row_2(x) on target_1 x target_2."""
    if t1.source != t2.source:
        raise SchemaError("join needs a common source space")
    require_same_scalar(t1, t2)
    target = product_space([t1.target, t2.target])
    rows = (t1.rows[:, :, None] * t2.rows[:, None, :]).reshape(t1.source.size, -1)
    return FiniteKernel(t1.source, target, rows)


def graph(t: FiniteKernel) -> FiniteKernel:
    """The kernel x -> delta_x x t(.|x) into source x target, i.e. the
    join of the identity with t."""
    n, m = t.source.size, t.target.size
    rows = zeros_like_backend((n, n, m), t.scalar)
    rows[np.arange(n), np.arange(n)] = t.rows          # block (x, x) is t(.|x)
    return FiniteKernel(t.source, product_space([t.source, t.target]),
                        rows.reshape(n, n * m))


def mirror(m: FiniteMeasure) -> FiniteMeasure:
    """Swap the two factors of a measure on a binary product."""
    factors = m.space.require_factors()
    if len(factors) != 2:
        raise NonProductSpaceError("mirror needs exactly two factors")
    a, b = factors
    w = m.weights.reshape(a.size, b.size).T.reshape(-1)
    return FiniteMeasure(product_space([b, a]), w)


def marginal(m: FiniteMeasure, axis: int) -> FiniteMeasure:
    """Project a measure on a product space onto one factor."""
    factors = m.space.require_factors()
    if not 0 <= axis < len(factors):
        raise SchemaError(f"axis {axis} out of range for {len(factors)} factors")
    shaped = m.weights.reshape(tuple(f.size for f in factors))
    other = tuple(i for i in range(len(factors)) if i != axis)
    return FiniteMeasure(factors[axis], _row_sums(shaped, other))


def product_kernel(t1: FiniteKernel, t2: FiniteKernel) -> FiniteKernel:
    """The kernel t1 x t2 on the product of the sources, acting
    factorwise: row (x1, x2) is the product measure t1(.|x1) x t2(.|x2)."""
    require_same_scalar(t1, t2)
    rows = t1.rows[:, None, :, None] * t2.rows[None, :, None, :]
    return FiniteKernel(product_space([t1.source, t2.source]),
                        product_space([t1.target, t2.target]),
                        rows.reshape(t1.source.size * t2.source.size, -1))
