"""Finite measurable spaces, measures on them, and bounded observables.

Everything is stored densely in numpy arrays.  Two scalar backends share
one code path: float64 arrays ("float") and object arrays holding
``fractions.Fraction`` ("rational").  Rational arithmetic is exact;
float arithmetic uses the tolerances below.  The two backends are never
mixed implicitly; convert with ``as_float``.

Everything that differs between the backends lives in this module: the
backend values (``zeros_like_backend``, ``_one_of``), equality
(``arrays_equal``), the validation of nonnegative and probability
weights, and the sums and products the other modules compute
(``_row_sums``, ``_matmul``, ``_product``, ``_normalized_rows``), which
run on integer numerators on the rational backend.  Elsewhere comparing
with the Python ints 0 and 1 is exact on both backends.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul, ne
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    BackendMismatchError,
    NonProductSpaceError,
    NotAbsolutelyContinuousError,
    SchemaError,
    UnsupportedStructureError,
    _clip,
)

RATIONAL = "rational"
FLOAT = "float"

# |sum(weights) - 1| must stay below this for a float probability measure.
PROB_SUM_TOL = 1e-9
# Float weights down to -1e-12 are treated as rounding noise and clamped to 0.
NEG_WEIGHT_TOL = 1e-12
# Default comparison tolerance for float-backed equality checks.
DEFAULT_TOLERANCE = 1e-9

@dataclass(frozen=True)
class FiniteSpace:
    """A finite measurable space: an ordered tuple of distinct labels.

    Labels may be any hashables; product spaces use tuples as labels,
    with the first factor varying slowest (row-major order).
    """

    labels: tuple

    def __post_init__(self):
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise SchemaError("a finite space needs at least one label")
        try:
            distinct = len(set(self.labels)) == len(self.labels)
        except TypeError as e:
            raise SchemaError(f"space labels must be hashable: {e}") from None
        if not distinct:
            raise SchemaError("space labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def _index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def index(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise SchemaError(f"label {_clip(label)} not in space") from None

    def __contains__(self, label) -> bool:
        """Whether ``label`` is a label of the space; an unhashable value
        is none, so it is not in the space."""
        try:
            return label in self._index
        except TypeError:
            return False

    @cached_property
    def factors(self):
        """The cartesian factors of this space, or None.

        A space factors when every label is a k-tuple (k >= 2) and the
        labels enumerate the full cross product of the per-position
        label sets in row-major order.  This lets product structure
        survive serialization round-trips.
        """
        labs = self.labels
        if not all(isinstance(lab, tuple) for lab in labs):
            return None
        lengths = {len(lab) for lab in labs}
        if len(lengths) != 1:
            return None
        k = lengths.pop()
        if k < 2:
            return None
        per_axis = [tuple(dict.fromkeys(lab[j] for lab in labs)) for j in range(k)]
        if math.prod(len(p) for p in per_axis) != len(labs):
            return None
        if tuple(itertools.product(*per_axis)) != labs:
            return None
        return tuple(FiniteSpace(p) for p in per_axis)

    def require_factors(self) -> tuple["FiniteSpace", ...]:
        if self.factors is None:
            raise NonProductSpaceError(
                "space labels do not form a cartesian product")
        return self.factors


def product_space(spaces: Sequence[FiniteSpace]) -> FiniteSpace:
    """Cartesian product, first factor slowest.  A single space is
    returned unchanged (no 1-tuples are introduced)."""
    spaces = list(spaces)
    if not spaces:
        raise SchemaError("product of zero spaces is undefined here")
    if len(spaces) == 1:
        return spaces[0]
    labels = tuple(itertools.product(*(s.labels for s in spaces)))
    return FiniteSpace(labels)


# ---------------------------------------------------------------------------
# scalar backend helpers

def _scalar_of_dtype(arr: np.ndarray) -> str:
    return FLOAT if arr.dtype == np.float64 else RATIONAL


def _refuse(v):
    """Raise the SchemaError for a value that no backend takes."""
    kind = ("boolean" if isinstance(v, (bool, np.bool_)) else "ragged or nested value"
            if isinstance(v, (list, tuple, np.ndarray)) else "value")
    raise SchemaError(f"{kind} {_clip(v)} is not a number")


def _element_types(values) -> set:
    """The types in a (nested) list, read in one C-level pass.  Refuses
    bools, ragged nesting and all that is neither a number nor a string."""
    arr = np.asarray(values, dtype=object)
    types = set(map(type, arr.flat))
    for t in types:
        if issubclass(t, bool) or not issubclass(
                t, (int, np.integer, float, np.floating, Fraction, str)):
            _refuse(next(v for v in arr.flat if type(v) is t))
    return types


def _to_fraction(x) -> Fraction:
    if isinstance(x, str):          # first: isinstance(x, Fraction) is an ABC check
        # Plain ASCII "p/q" and integers go through int(); every other
        # string, a zero denominator and a part over the int/str digit
        # limit go to Fraction's parser, for its value or its reason.
        p, slash, q = x.partition("/")
        if x.isascii() and p.removeprefix("-").isdigit() and (q.isdigit() or not slash):
            try:
                n, d = int(p), int(q) if slash else 1
            except ValueError:
                pass
            else:
                if d:
                    return Fraction(n, d)
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:    # also the int/str limit
            raise SchemaError(f"bad rational {_clip(x)}: {_clip(e, 160)}") from None
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        raise SchemaError(f"refusing to coerce float {_clip(x)} to an exact "
                          "rational; use 'p/q' strings or scalar='float'")
    _refuse(x)


_fractions = np.frompyfunc(_to_fraction, 1, 1)


def as_scalar_array(values, scalar: str | None = None) -> np.ndarray:
    """Coerce ``values`` (1-D to 3-D) to a backend array: the one place
    where outside values become weights, for the library and JSON alike.

    Fractions and 'p/q' strings are rational, floats are float, ints fit
    either backend (rational when alone).  Mixing the two kinds is
    refused, and so are bools, None and other types; ``scalar`` refuses
    the other kind (strings under 'float').  A bad literal, a zero
    denominator or a value over the int/str digit limit raises
    SchemaError with the parser's reason.  The value classes freeze
    their arrays in place, so a caller's array is copied unless it is
    already read-only and owns its data.
    """
    if scalar not in (None, RATIONAL, FLOAT):
        raise SchemaError(f"unknown scalar backend {_clip(scalar)}")
    if isinstance(values, np.ndarray):
        if (values.dtype == np.float64 and scalar != RATIONAL
                or values.dtype == object and scalar != FLOAT
                and all(isinstance(v, Fraction) for v in values.flat)):
            frozen = not values.flags.writeable and values.flags.owndata
            return values if frozen else values.copy()
        values = values.tolist()
    values = np.asarray(values, dtype=object)
    if values.ndim > 3:             # before np.frompyfunc, which takes at most 32
        raise SchemaError(f"values of {values.ndim} dimensions; no value takes more than 3")
    if scalar != RATIONAL:          # else _to_fraction checks each value
        types = _element_types(values)
        kinds = {FLOAT if issubclass(t, (float, np.floating)) else RATIONAL
                 for t in types if not issubclass(t, (int, np.integer))}
        if len(kinds) > 1:
            raise SchemaError("exact ('p/q' or Fraction) and float values mixed")
        if scalar == FLOAT and kinds == {RATIONAL}:
            raise SchemaError("scalar='float' takes no 'p/q' strings or Fractions")
        scalar = scalar or (kinds.pop() if kinds else RATIONAL)
    if scalar == FLOAT:
        try:
            return values.astype(np.float64)
        except (TypeError, ValueError, OverflowError) as e:
            raise SchemaError(f"cannot coerce values to float64: {_clip(e, 160)}") from None
    return np.asarray(_fractions(values), dtype=object)


def zeros_like_backend(shape, scalar: str) -> np.ndarray:
    if scalar == FLOAT:
        return np.zeros(shape, dtype=np.float64)
    if scalar == RATIONAL:
        return np.full(shape, Fraction(0), dtype=object)
    raise SchemaError(f"unknown scalar backend {_clip(scalar)}")


def _one_of(scalar: str):
    if scalar == RATIONAL:
        return Fraction(1)
    if scalar == FLOAT:
        return 1.0
    raise SchemaError(f"unknown scalar backend {_clip(scalar)}")


def _as_float_array(arr: np.ndarray) -> np.ndarray:
    return arr if arr.dtype == np.float64 else arr.astype(np.float64)


def require_same_scalar(*objs) -> str:
    """The one backend of ``objs``: value objects or backend arrays."""
    kinds = {_scalar_of_dtype(o) if isinstance(o, np.ndarray) else o.scalar for o in objs}
    if len(kinds) != 1:
        raise BackendMismatchError(
            f"mixed scalar backends {sorted(kinds)}; convert explicitly with as_float()")
    return kinds.pop()


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Make ``arr`` read-only in place.  Only the value classes call
    this, on arrays they own (see ``as_scalar_array``)."""
    arr.setflags(write=False)
    return arr


def arrays_equal(a: np.ndarray, b: np.ndarray, scalar: str,
                 tol: float = DEFAULT_TOLERANCE) -> bool:
    """Entrywise comparison: exact on the rational backend, max-abs
    difference at most ``tol`` on the float backend."""
    if a.shape != b.shape:
        return False
    if scalar == RATIONAL:
        return bool(np.equal(a, b).all())
    return bool(np.max(np.abs(a - b), initial=0.0) <= tol)


def _at(bad: np.ndarray) -> str:
    """' at row i' or ' at row (h, x)': the first True of one flag per row."""
    row = tuple(map(int, np.unravel_index(np.argmax(bad), bad.shape)))
    return f" at row {row[0] if len(row) == 1 else row}" if row else ""


# ---------------------------------------------------------------------------
# exact arithmetic on integer numerators
#
# A Fraction operator pays a gcd and an ABC dispatch on every call.  The
# helpers below read each Fraction's numerator and denominator once, put
# each row over the lcm of its denominators, do every product and sum on
# Python ints (a matrix product in numpy's object loop) and build one
# reduced Fraction per output entry.  Flat lists keep the fixed cost of a
# call to a few microseconds.  On float64 arrays each helper is exactly
# the numpy operation it names.

def _ints(arr: np.ndarray) -> tuple:
    """The numerators and the denominators of a Fraction array, as two
    flat lists of Python ints in row-major order."""
    flat = arr.ravel().tolist()
    return [q.numerator for q in flat], [q.denominator for q in flat]


def _int_arrays(arr: np.ndarray) -> tuple:
    """``_ints(arr)`` as two object arrays of the shape of ``arr``."""
    return tuple(np.array(p, dtype=object).reshape(arr.shape) for p in _ints(arr))


def _from_ints(nums, dens, shape) -> np.ndarray:
    """The array of ``shape`` of the reduced Fractions nums[i] / dens[i]."""
    return np.array(list(map(Fraction, nums, dens)), dtype=object).reshape(shape)


def _over_lcm(nums: list, dens: list, k: int) -> tuple:
    """The rows of ``k`` entries of nums/dens over the lcm of their
    denominators: the scaled numerators (flat) and each row's lcm."""
    scaled, lcms = [], []
    for i in range(0, len(nums), k):
        row = dens[i:i + k]
        lcm = math.lcm(*row)
        scaled += map(mul, nums[i:i + k], [lcm // d for d in row])
        lcms.append(lcm)
    return scaled, lcms


def _sums(flat: list, k: int) -> list:
    """The sum of each row of ``k`` entries of a flat list."""
    return [sum(flat[i:i + k]) for i in range(0, len(flat), k)]


def _row_sums(arr: np.ndarray, axis=-1) -> np.ndarray:
    """``arr.sum(axis=axis)``; ``axis`` is an int or a tuple of ints."""
    if arr.dtype == np.float64:
        return arr.sum(axis=axis)
    if axis != -1:                  # the summed axes last, as one
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        keep = arr.ndim - len(axes)
        arr = np.moveaxis(arr, axes, range(keep, arr.ndim))
        arr = arr.reshape(arr.shape[:keep] + (-1,))
    k = arr.shape[-1]
    scaled, lcms = _over_lcm(*_ints(arr), k)
    return _from_ints(_sums(scaled, k), lcms, arr.shape[:-1])


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 1-D or 2-D ``a`` and ``b``, not both 1-D.  Exact:
    the rows of ``a`` over their lcm, ``b`` over one common denominator."""
    if a.dtype == np.float64:
        return a @ b
    rows, lcms = _over_lcm(*_ints(a), a.shape[-1])
    nums, dens = _ints(b)
    lcm_b = math.lcm(*dens)
    prod = (np.array(rows, dtype=object).reshape(a.shape)
            @ np.array([n * (lcm_b // d) for n, d in zip(nums, dens)],
                       dtype=object).reshape(b.shape))
    per_row = b.shape[1] if b.ndim == 2 else 1
    return _from_ints(prod.ravel().tolist(),
                      [lcm * lcm_b for lcm in lcms for _ in range(per_row)], prod.shape)


# A float running product whose largest entry falls below this is
# rescaled by a power of two, so a long product cannot underflow.
_RESCALE_BELOW = 2.0 ** -500


def _product(*factors: np.ndarray, rescale: bool = False) -> np.ndarray:
    """The broadcast product of ``factors``, multiplied left to right.

    With ``rescale``, a float running product is kept from underflowing:
    the result is then known only up to a positive power-of-two factor.
    Exact products need no rescaling.
    """
    if factors[0].dtype == np.float64:
        out = factors[0]
        for f in factors[1:]:
            out = out * f
            if rescale:
                top = out.max()
                if 0.0 < top < _RESCALE_BELOW:
                    out = np.ldexp(out, -np.frexp(top)[1])
        return out
    if len(factors) == 1:
        return factors[0]
    num, den = _int_arrays(factors[0])
    for f in factors[1:]:
        n, d = _int_arrays(f)
        num, den = num * n, den * d
    return _from_ints(num.ravel().tolist(), den.ravel().tolist(), num.shape)


def _normalized_rows(w: np.ndarray, fallback, scale=None) -> tuple:
    """The conditioning step: each row of the 2-D ``w`` (times ``scale``,
    one factor per column) divided by its mass, and ``fallback`` in the
    rows of zero mass, with the mask of those rows."""
    if w.dtype == np.float64:
        rows = w.copy() if scale is None else w * scale     # divided in place
        mass = rows.sum(axis=1)
        null = mass == 0
        rows /= np.where(null, 1, mass)[:, None]
        rows[null] = fallback
        return rows, null
    n, k = w.shape
    nums, dens = _ints(w)
    if scale is not None:
        snums, sdens = _ints(scale)
        nums, dens = list(map(mul, nums, snums * n)), list(map(mul, dens, sdens * n))
    scaled, _ = _over_lcm(nums, dens, k)    # row i over its lcm, which cancels
    rows = np.empty(w.shape, dtype=object)
    null = np.zeros(n, dtype=bool)
    for i in range(n):
        row = scaled[i * k:(i + 1) * k]
        mass = sum(row)
        if mass:
            rows[i] = list(map(Fraction, row, itertools.repeat(mass, k)))
        else:
            null[i] = True
    rows[null] = fallback
    return rows, null


def _check_finite(arr: np.ndarray, what: str, entries: str = "weight") -> np.ndarray:
    """Refuse a float array with a NaN or infinite entry, or whose total
    overflows; return it."""
    if arr.dtype == np.float64:
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(arr.sum())       # NaN and inf propagate into the sum
        if not math.isfinite(total):
            raise SchemaError(f"non-finite total {entries} {total} in a {what}")
    return arr


def _check_weights(arr: np.ndarray, what: str, rows: str | None = None) -> np.ndarray:
    """Refuse negative entries and non-finite floats; with ``rows``, also
    rows (along the last axis) that do not sum to 1, exactly on the
    rational backend and within PROB_SUM_TOL on the float backend.  A
    refusal names the first bad row.  Float entries in
    [-NEG_WEIGHT_TOL, 0) are rounding noise: the returned array has them
    clamped to 0."""
    if arr.dtype != np.float64:
        nums, dens = _ints(arr)
        if nums and min(nums) < 0:        # a Fraction has its numerator's sign
            neg = np.array([n < 0 for n in nums], dtype=bool).reshape(arr.shape)
            raise SchemaError(f"negative weight {arr[neg][0]} in a {what}{_at(neg.any(-1))}")
        if rows is not None:
            k = arr.shape[-1]
            scaled, lcms = _over_lcm(nums, dens, k)
            sums = _sums(scaled, k)
            if sums != lcms:                        # row i sums to sums[i] / lcms[i]
                bad = np.array(list(map(ne, sums, lcms)), dtype=bool)
                i = int(bad.argmax())
                raise SchemaError(f"rational {rows} must sum to 1, got "
                                  f"{Fraction(sums[i], lcms[i])}{_at(bad.reshape(arr.shape[:-1]))}")
        return arr
    _check_finite(arr, what)
    low = float(arr.min(initial=0.0))
    if low < -NEG_WEIGHT_TOL:
        raise SchemaError(f"negative weight {low:.6g} in a {what}{_at((arr == low).any(-1))}")
    if low < 0.0:
        arr = np.where(arr < 0.0, 0.0, arr)
    if rows is not None:
        sums = np.asarray(arr.sum(axis=-1))
        bad = ~(np.abs(sums - 1.0) <= PROB_SUM_TOL)         # NaN is bad too
        if bad.any():
            raise SchemaError(f"float {rows} must sum to 1, off by {abs(sums[bad][0] - 1.0):.3g} "
                              f"(tolerance {PROB_SUM_TOL}){_at(bad)}")
    return arr


def _stochastic_rows(values, shape: tuple, what: str, scalar: str | None = None) -> np.ndarray:
    """``values`` as a backend array of ``shape`` whose rows are probability vectors."""
    arr = as_scalar_array(values, scalar)
    if arr.shape != shape:
        raise SchemaError(f"expected rows of shape {shape}, got {arr.shape}")
    return _check_weights(arr, what, f"{what} rows")


# ---------------------------------------------------------------------------
# measures

@dataclass(frozen=True, eq=False)
class FiniteMeasure:
    """A signed measure on a finite space: one weight per label.

    Use the factory functions ``signed_measure``, ``measure`` and
    ``prob_measure``; they differ only in what they validate.
    """

    space: FiniteSpace
    weights: np.ndarray

    def __post_init__(self):
        shape = getattr(self.weights, "shape", None)
        if shape != (self.space.size,):
            raise SchemaError(f"expected {self.space.size} weights, got shape {shape}")
        _freeze(self.weights)

    @property
    def scalar(self) -> str:
        return _scalar_of_dtype(self.weights)

    def weight(self, label):
        return self.weights[self.space.index(label)]

    def total(self):
        return _row_sums(self.weights)[()]

    def is_nonnegative(self) -> bool:
        return bool((self.weights >= 0).all())

    def is_probability(self) -> bool:
        if not self.is_nonnegative():
            return False
        if self.scalar == RATIONAL:
            return self.total() == 1
        return abs(float(self.total()) - 1.0) <= PROB_SUM_TOL

    def as_float(self) -> "FiniteMeasure":
        return FiniteMeasure(self.space, _as_float_array(self.weights))


def signed_measure(space: FiniteSpace, weights, scalar: str | None = None) -> FiniteMeasure:
    """A measure of any sign.  Float weights must be finite, and so must
    their total."""
    return FiniteMeasure(space, _check_finite(as_scalar_array(weights, scalar), "measure"))


def _checked_measure(m: FiniteMeasure, what: str, rows: str | None = None) -> FiniteMeasure:
    """``m`` with its weights through ``_check_weights``: the same measure,
    or a new one if float weights in [-1e-12, 0) were clamped to 0."""
    arr = _check_weights(m.weights, what, rows)
    return m if arr is m.weights else FiniteMeasure(m.space, arr)


def measure(space: FiniteSpace, weights, scalar: str | None = None) -> FiniteMeasure:
    """A nonnegative measure.  Float weights must be finite; those in
    [-1e-12, 0) are clamped to 0."""
    return _checked_measure(FiniteMeasure(space, as_scalar_array(weights, scalar)), "measure")


def prob_measure(space: FiniteSpace, weights, scalar: str | None = None) -> FiniteMeasure:
    """A probability measure.  Rational weights must sum to 1 exactly;
    float weights must sum to 1 within 1e-9."""
    return _checked_measure(FiniteMeasure(space, as_scalar_array(weights, scalar)),
                            "measure", "measure weights")


def dirac_measure(space: FiniteSpace, label, scalar: str = RATIONAL) -> FiniteMeasure:
    w = zeros_like_backend(space.size, scalar)
    w[space.index(label)] = _one_of(scalar)
    return FiniteMeasure(space, w)


def uniform_measure(space: FiniteSpace, scalar: str = RATIONAL) -> FiniteMeasure:
    w = np.full(space.size, _one_of(scalar) / space.size)
    return FiniteMeasure(space, w)


def measures_equal(m1: FiniteMeasure, m2: FiniteMeasure,
                   tol: float = DEFAULT_TOLERANCE) -> bool:
    """Same space (same label order) and entrywise-equal weights."""
    if m1.space != m2.space:
        return False
    scalar = require_same_scalar(m1, m2)
    return arrays_equal(m1.weights, m2.weights, scalar, tol)


# ---------------------------------------------------------------------------
# bounded observables

@dataclass(frozen=True, eq=False)
class BoundedFunction:
    """A scalar-valued function on a finite space, stored as its value table."""

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        shape = getattr(self.values, "shape", None)
        if shape != (self.space.size,):
            raise SchemaError(f"expected {self.space.size} values, got shape {shape}")
        _freeze(self.values)

    @property
    def scalar(self) -> str:
        return _scalar_of_dtype(self.values)

    def __call__(self, label):
        return self.values[self.space.index(label)]

    def sup_norm(self):
        return np.max(np.abs(self.values))

    def as_float(self) -> "BoundedFunction":
        return BoundedFunction(self.space, _as_float_array(self.values))


def bounded_function(space: FiniteSpace, values, scalar: str | None = None) -> BoundedFunction:
    """A function from its values.  Float values must be finite, and so
    must their total."""
    return BoundedFunction(space, _check_finite(as_scalar_array(values, scalar),
                                                "function", "value"))


def constant_function(space: FiniteSpace, value, scalar: str | None = None) -> BoundedFunction:
    return bounded_function(space, [value] * space.size, scalar)


def integrate(f: BoundedFunction, m: FiniteMeasure):
    """The pairing sum_x f(x) * mu(x)."""
    if f.space != m.space:
        raise SchemaError("function and measure live on different spaces")
    require_same_scalar(f, m)
    return (f.values * m.weights).sum()


def expectation(m: FiniteMeasure, f: Callable | None = None):
    """sum_x f(x) mu(x) with f applied to the labels (identity by default).

    With the default f the labels themselves must support arithmetic,
    e.g. the float cell centers of a discretization grid.  Values are
    taken in the measure's backend, so rational sums stay exact.
    """
    labels = m.space.labels
    vals = labels if f is None else [f(lab) for lab in labels]
    return m.weights @ np.asarray(vals, dtype=m.weights.dtype)


# ---------------------------------------------------------------------------
# norms, products, convolution, densities

def tv_norm(m: FiniteMeasure):
    """Total variation norm: sum of absolute weights."""
    return np.abs(m.weights).sum()


def product_measure(ms: Sequence[FiniteMeasure]) -> FiniteMeasure:
    """Independent product on the product space, first factor slowest.
    A single measure is returned unchanged."""
    ms = list(ms)
    if not ms:
        raise SchemaError("product of zero measures is undefined here")
    if len(ms) == 1:
        return ms[0]
    require_same_scalar(*ms)
    space = product_space([m.space for m in ms])
    w = ms[0].weights
    for m in ms[1:]:
        w = (w[:, None] * m.weights[None, :]).reshape(-1)
    return FiniteMeasure(space, w)


def _lattice_points(space: FiniteSpace) -> tuple:
    """The lattice dimension of the labels (0 for integers, d for
    d-tuples of integers) and the labels in Python ints, as an (n,) or
    (n, d) object array; raises otherwise."""
    points = np.array(space.labels, dtype=object)
    if points.ndim > 2 or points.size == 0 or not all(
            isinstance(c, (int, np.integer)) and not isinstance(c, bool)
            for c in points.flat):
        raise UnsupportedStructureError(
            "convolution needs integer or integer-tuple labels")
    return points.shape[1] if points.ndim == 2 else 0, np.frompyfunc(int, 1, 1)(points)


def convolve(m1: FiniteMeasure, m2: FiniteMeasure) -> FiniteMeasure:
    """Distribution of the sum of independent draws: the product measure
    pushed along the sum map.

    Both spaces must consist of integer lattice points of the same
    dimension.  The result's labels are the sorted sums of label pairs.
    """
    scalar = require_same_scalar(m1, m2)
    (d1, p1), (d2, p2) = _lattice_points(m1.space), _lattice_points(m2.space)
    if d1 != d2:
        raise UnsupportedStructureError(
            f"lattice dimensions differ: {d1} vs {d2}")
    sums = (p1[:, None] + p2[None, :]).reshape(-1, *p1.shape[1:])
    keys = list(map(tuple, sums)) if d1 else sums.tolist()
    space = FiniteSpace(tuple(sorted(set(keys))))
    # Products are added in the product measure's order, onto -0.0: unlike
    # +0.0, it leaves a lone -0.0 product as it is.
    w = -zeros_like_backend(space.size, scalar)
    np.add.at(w, [space._index[k] for k in keys],
              (m1.weights[:, None] * m2.weights[None, :]).reshape(-1))
    return FiniteMeasure(space, w)


def radon_nikodym(nu: FiniteMeasure, mu: FiniteMeasure) -> BoundedFunction:
    """The density d(nu)/d(mu) as a bounded function.

    Raises NotAbsolutelyContinuousError (with a witness label) if nu
    has mass at a point where mu vanishes.  On such null points of mu
    the density is set to 0.
    """
    if nu.space != mu.space:
        raise SchemaError("measures live on different spaces")
    require_same_scalar(nu, mu)
    null = mu.weights == 0
    witness = np.flatnonzero(null & (nu.weights != 0))
    if witness.size:
        raise NotAbsolutelyContinuousError(witness=mu.space.labels[witness[0]])
    # nu vanishes on the null points, so dividing by 1 there gives the 0.
    vals = nu.weights / np.where(null, 1, mu.weights)
    return BoundedFunction(mu.space, vals)
