"""JSON and CSV interchange for spaces, measures, kernels and models.

Rational scalars travel as "p/q" strings, floats as JSON numbers.
``dumps_canonical`` emits a canonical encoding (sorted keys, shortest
round-trip floats, so ``1.0`` prints as ``1.0`` and reads back as a
float), so identical inputs always produce byte-identical artifacts.

``*_to_jsonable`` results are input for ``dumps_canonical``: they may
hold tuples and numpy scalars as labels, which it writes as arrays and
numbers; other types JSON cannot hold are refused.  A ``None`` label
is written as ``null`` (the reader refuses it, as it refuses bools) and
a ``Fraction`` label as "p/q" text, which reads back as a string.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .errors import SchemaError, _clip
from .measures import (FiniteMeasure, FiniteSpace, _freeze, as_scalar_array,
                       require_same_scalar, signed_measure)
from .kernels import FiniteKernel, finite_kernel
from .bayes import BayesModel, InversionResult
from .gaussian import AffineGaussianMap, GaussianMeasure
from .supervised import (
    GPModel,
    InferenceResult,
    SupervisedModel,
    TestInputs,
    TrainingSet,
    constant_mean,
    squared_exponential,
    zero_mean,
)


# ---------------------------------------------------------------------------
# canonical JSON text

def _fraction_text(q: Fraction) -> str:
    """``q`` as "p/q", refused when an integer exceeds the interpreter's
    int/str conversion limit (which is never changed here)."""
    try:
        return str(q)
    except ValueError:
        bits = max(abs(q.numerator), q.denominator).bit_length()
        digits = int(bits * math.log10(2)) + 1
        raise SchemaError(
            f"cannot serialize an exact value of about {digits} digits: over "
            f"the int/str conversion limit of {sys.get_int_max_str_digits()} "
            "digits") from None


def _jsonable(obj):
    """The ``default`` hook of ``dumps_canonical``.  A backend array
    gives nested lists of JSON values: "p/q" strings or floats."""
    if isinstance(obj, Fraction):
        return _fraction_text(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return (_jsonables(obj) if obj.dtype == object else obj).tolist()
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


_jsonables = np.frompyfunc(_jsonable, 1, 1)


def dumps_canonical(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False, allow_nan=False, default=_jsonable)
    except ValueError as e:
        if str(e).startswith("Out of range float"):
            raise SchemaError("cannot serialize non-finite float") from None
        raise SchemaError(f"cannot serialize: {e}") from None


# ---------------------------------------------------------------------------
# shared pieces

def _require(d: dict, key: str, kinds, where: str):
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in d:
        raise SchemaError(f"{where}: missing key {key!r}")
    v = d[key]
    if kinds is not None and not isinstance(v, kinds):
        raise SchemaError(f"{where}.{key}: wrong type {type(v).__name__}")
    return v


def _built(where: str, make, *args):
    """make(*args), with a SchemaError it raises prefixed by ``where``."""
    try:
        return make(*args)
    except SchemaError as e:
        raise SchemaError(f"{where}: {e}") from None


def label_from_jsonable(v):
    """A JSON label, arrays as tuples.  A label nested too deep to read
    within the recursion limit is refused; each level takes two frames
    here, so a label that is read is shallow enough to hash, print and
    write back."""
    if isinstance(v, list):
        try:
            return tuple(label_from_jsonable(x) for x in v)
        except RecursionError:
            raise SchemaError("label nested too deep to read") from None
    if isinstance(v, (str, int, float)) and not isinstance(v, bool):
        return v
    raise SchemaError(f"bad label value {_clip(v)}")


def space_from_jsonable(v, where: str = "space") -> FiniteSpace:
    if not isinstance(v, list):
        raise SchemaError(f"{where}: expected a list of labels")
    return _built(where, FiniteSpace, map(label_from_jsonable, v))


# ---------------------------------------------------------------------------
# measures and kernels

def measure_to_jsonable(m: FiniteMeasure) -> dict:
    return {"labels": m.space.labels,
            "weights": _jsonable(m.weights),
            "scalar": m.scalar}


def measure_from_jsonable(d, where: str = "measure") -> FiniteMeasure:
    labels = _require(d, "labels", list, where)
    weights = _require(d, "weights", list, where)
    space = space_from_jsonable(labels, f"{where}.labels")
    return _built(where, signed_measure, space, weights, d.get("scalar"))


def kernel_to_jsonable(t: FiniteKernel) -> dict:
    return {"source": t.source.labels,
            "target": t.target.labels,
            "rows": _jsonable(t.rows)}


def _table(rows, n: int, m: int, where: str) -> np.ndarray:
    """JSON rows as an (n, m) backend array, refused under ``where``."""
    arr = _built(f"{where}.rows", as_scalar_array, rows)
    if arr.shape != (n, m):
        raise SchemaError(f"{where}.rows: expected rows of shape {(n, m)}, got {arr.shape}")
    return arr


def kernel_from_jsonable(d, where: str = "kernel") -> FiniteKernel:
    source = space_from_jsonable(_require(d, "source", list, where), f"{where}.source")
    target = space_from_jsonable(_require(d, "target", list, where), f"{where}.target")
    return _built(f"{where}.rows", finite_kernel, source, target,
                  _require(d, "rows", list, where))


# ---------------------------------------------------------------------------
# models

def bayes_model_to_jsonable(m: BayesModel) -> dict:
    return {"prior": measure_to_jsonable(m.prior),
            "sampling": kernel_to_jsonable(m.sampling)}


def bayes_model_from_jsonable(d, where: str = "model") -> BayesModel:
    prior = measure_from_jsonable(_require(d, "prior", dict, where), f"{where}.prior")
    sampling = kernel_from_jsonable(_require(d, "sampling", dict, where),
                                    f"{where}.sampling")
    return _built(where, BayesModel, prior, sampling)


def inversion_to_jsonable(r: InversionResult) -> dict:
    return {"kernel": kernel_to_jsonable(r.kernel),
            "null_points": r.null_points}


def inference_to_jsonable(r: InferenceResult) -> dict:
    """The artifact of ``posterior`` and ``predictive``: the measure and
    whether the observed labels had zero evidence."""
    return {**measure_to_jsonable(r.measure), "null_evidence": r.null_evidence}


def supervised_model_to_jsonable(m: SupervisedModel) -> dict:
    return {"prior": measure_to_jsonable(m.prior),
            "inputs": m.inputs.labels,
            "labels": m.labels.labels,
            "supervisors": _jsonable(m.rows)}


def supervised_model_from_jsonable(d, where: str = "model") -> SupervisedModel:
    prior = measure_from_jsonable(_require(d, "prior", dict, where), f"{where}.prior")
    inputs = space_from_jsonable(_require(d, "inputs", list, where), f"{where}.inputs")
    labels = space_from_jsonable(_require(d, "labels", list, where), f"{where}.labels")
    sup = _require(d, "supervisors", list, where)
    tables = [_table(rows, inputs.size, labels.size, f"{where}.supervisors[{i}]")
              for i, rows in enumerate(sup)]
    require_same_scalar(prior, *tables)
    # np.array, not np.stack: no supervisors give a (0,) array that the
    # model refuses for its shape.  Frozen, so the model takes it uncopied.
    return _built(where, SupervisedModel, prior, inputs, labels, _freeze(np.array(tables)))


def training_from_jsonable(d, where: str = "training") -> TrainingSet:
    pairs = _require(d, "pairs", list, where)
    out = []
    for i, p in enumerate(pairs):
        if not isinstance(p, list) or len(p) != 2:
            raise SchemaError(f"{where}.pairs[{i}]: expected [input, label]")
        out.append(_built(f"{where}.pairs[{i}]", tuple, map(label_from_jsonable, p)))
    return TrainingSet(tuple(out))


def training_to_jsonable(s: TrainingSet) -> dict:
    return {"pairs": s.pairs}


def test_inputs_from_jsonable(d, where: str = "test") -> TestInputs:
    points = _require(d, "points", list, where)
    return _built(where, TestInputs, map(label_from_jsonable, points))


def test_inputs_to_jsonable(t: TestInputs) -> dict:
    return {"points": t.points}


# ---------------------------------------------------------------------------
# Gaussian objects

def gaussian_to_jsonable(g: GaussianMeasure) -> dict:
    return {"mean": g.mean.tolist(), "cov": g.cov.tolist()}


def gaussian_from_jsonable(d, where: str = "gaussian") -> GaussianMeasure:
    return _built(where, GaussianMeasure, _require(d, "mean", list, where),
                  _require(d, "cov", list, where))


def affine_map_to_jsonable(t: AffineGaussianMap) -> dict:
    return {"A": t.A.tolist(), "b": t.b.tolist(), "noise": t.noise.tolist()}


def affine_map_from_jsonable(d, where: str = "map") -> AffineGaussianMap:
    A, b, noise = (_require(d, k, list, where) for k in ("A", "b", "noise"))
    return _built(where, AffineGaussianMap, A, b, noise)


def _number(d: dict, key: str, where: str) -> float:
    """A JSON number field as a float; booleans are refused."""
    v = _require(d, key, (int, float), where)
    if isinstance(v, bool):
        raise SchemaError(f"{where}.{key}: wrong type bool")
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(f"{where}.{key}: {_clip(v)} is out of the float range") from None


def gp_model_from_jsonable(d, where: str = "gp") -> GPModel:
    kd = _require(d, "kernel", dict, where)
    family = _require(kd, "family", str, f"{where}.kernel")
    if family != "squared-exponential":
        raise SchemaError(f"{where}.kernel.family: unsupported family {_clip(family)}")
    length = _number(kd, "length_scale", f"{where}.kernel")
    amp = _number(kd, "amplitude", f"{where}.kernel")
    md = d.get("mean", {"type": "zero"})
    mtype = _require(md, "type", str, f"{where}.mean")
    if mtype == "zero":
        mean_fn = zero_mean()
    elif mtype == "constant":
        mean_fn = _built(f"{where}.mean", constant_mean, _number(md, "value", f"{where}.mean"))
    else:
        raise SchemaError(f"{where}.mean.type: unsupported type {_clip(mtype)}")
    cov_fn = _built(where, squared_exponential, length, amp)
    return _built(where, GPModel, mean_fn, cov_fn, _number(d, "noise_var", where))


# ---------------------------------------------------------------------------
# CSV for GP regression

# UTF-8, past the byte-order mark that spreadsheets may write before the header.
_CSV_ENCODING = "utf-8-sig"


def _xy_columns(fieldnames, need_y: bool, where: str):
    """The header names of the x columns and of the y column (None when
    absent).  Names match with surrounding spaces stripped."""
    raw = {f.strip(): f for f in fieldnames or []}
    if "x" in raw:
        xcols = ["x"]
    else:
        xcols = sorted((n for n in raw if n.startswith("x") and n[1:].isdigit()),
                       key=lambda n: int(n[1:]))
        if not xcols:
            raise SchemaError(f"{where}: need an 'x' column (or x1..xd)")
    if need_y and "y" not in raw:
        raise SchemaError(f"{where}: need a 'y' column")
    return [raw[n] for n in xcols], raw.get("y")


def _parse_x(row, xcols, where, what="input value"):
    try:
        vals = [float(row[c]) for c in xcols]
    except (TypeError, ValueError, KeyError):
        raise SchemaError(f"{where}: non-numeric {what} in row {_clip(row)}") from None
    if not all(math.isfinite(v) for v in vals):
        raise SchemaError(f"{where}: non-finite {what} in row {_clip(row)}")
    return vals[0] if len(vals) == 1 else tuple(vals)


def read_training_csv(path) -> TrainingSet:
    with open(path, newline="", encoding=_CSV_ENCODING) as fh:
        reader = csv.DictReader(fh)
        xcols, ycol = _xy_columns(reader.fieldnames, True, str(path))
        pairs = []
        for row in reader:
            x = _parse_x(row, xcols, str(path))
            y = _parse_x(row, [ycol], str(path), "y")
            pairs.append((x, y))
    return TrainingSet(tuple(pairs))


def read_test_csv(path) -> TestInputs:
    with open(path, newline="", encoding=_CSV_ENCODING) as fh:
        reader = csv.DictReader(fh)
        xcols, _ = _xy_columns(reader.fieldnames, False, str(path))
        points = [_parse_x(row, xcols, str(path)) for row in reader]
    if not points:
        raise SchemaError(f"{str(path)}: no test points")
    return TestInputs(tuple(points))


def format_predictions_csv(t: TestInputs, pred: GaussianMeasure) -> str:
    """Rows of test input, predictive mean, predictive standard
    deviation, one row per test point, 17-significant-digit floats."""
    first = t.points[0]
    width = len(first) if isinstance(first, tuple) else 1
    header = (["x"] if width == 1 else [f"x{i + 1}" for i in range(width)])
    lines = [",".join(header + ["mean", "sd"])]
    for i, p in enumerate(t.points):
        coords = list(p) if isinstance(p, tuple) else [p]
        sd = math.sqrt(max(float(pred.cov[i, i]), 0.0))
        cells = [format(float(c), ".17g") for c in coords]
        cells.append(format(float(pred.mean[i]), ".17g"))
        cells.append(format(sd, ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
