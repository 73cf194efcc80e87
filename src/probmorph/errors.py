"""Exception types shared across the package.

The CLI maps these onto exit codes: schema problems exit with 2,
numerical failures with 3, law-check failures with 4.
"""


def _clip(v, limit: int = 60) -> str:
    """repr(v) for an error message, cut after ``limit`` characters.
    An exception gives its own text instead of its repr."""
    r = str(v) if isinstance(v, BaseException) else repr(v)
    return r if len(r) <= limit else f"{r[:limit]}... ({len(r)} characters)"


class ProbmorphError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(ProbmorphError):
    """Malformed or inconsistent input data (JSON, CSV, constructor args)."""


class BackendMismatchError(ProbmorphError):
    """Operands use different scalar backends (rational vs float).

    Mixing is never done silently; convert explicitly with ``as_float``.
    """


class NonProductSpaceError(ProbmorphError):
    """The operation needs a product space but the labels have no
    consistent factorization into a cartesian product."""


class UnsupportedStructureError(ProbmorphError):
    """Labels lack the structure the operation needs (e.g. convolution
    on a space whose labels are not integer lattice points)."""


class NotAbsolutelyContinuousError(ProbmorphError):
    """Density requested for nu with respect to mu, but nu puts mass
    where mu has none.  ``witness`` is one offending label."""

    def __init__(self, witness, message=None):
        self.witness = witness
        super().__init__(message or f"not absolutely continuous: mass at {witness!r} "
                                    "where reference measure vanishes")


class NumericalError(ProbmorphError):
    """Base class for numerical failures (exit code 3 in the CLI)."""


class SingularMatrixError(NumericalError):
    """A linear solve was refused because the matrix is singular or too
    ill-conditioned.  ``condition`` holds the condition-number estimate."""

    def __init__(self, condition, message=None):
        self.condition = condition
        super().__init__(message or "matrix singular or ill-conditioned "
                                    f"(condition estimate {condition:.6g})")


class NotPSDError(NumericalError):
    """A covariance matrix is asymmetric or indefinite beyond tolerance."""


class GridError(NumericalError):
    """A discretization grid is too coarse, too narrow, or otherwise
    unable to represent the requested distribution."""
