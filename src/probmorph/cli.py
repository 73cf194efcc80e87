"""Command-line front end.

Subcommands::

    invert       invert a finite Bayesian model (prior + sampling kernel)
    posterior    condition a supervised model on training pairs
    predictive   posterior-predictive joint at test inputs
    gp-predict   Gaussian-process regression from CSV data
    check-laws   run randomized law checks and report counterexamples

Exit codes: 0 success, 2 malformed input, 3 numerical failure,
4 law-check counterexamples found.  Outputs are canonical JSON (or CSV
for gp-predict): identical inputs give byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .errors import BackendMismatchError, NumericalError, SchemaError
from .measures import FLOAT, RATIONAL
from .bayes import bayes_invert
from .supervised import SupervisedModel, posterior as sup_posterior, predictive as sup_predictive, gp_posterior_predictive
from . import laws as law_suite
from . import serialize as ser


def _load_json(path: str, what: str):
    def refuse(name):
        raise SchemaError(f"{what} file {path!r} holds the non-finite JSON "
                          f"constant {name} ({float(name)})")

    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=refuse)
    except OSError as e:
        raise SchemaError(f"cannot read {what} file {path!r}: {e}") from None
    except ValueError as e:         # bad JSON, or an int over the int/str limit
        raise SchemaError(f"{what} file {path!r} is not valid JSON: {e}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None) -> None:
    _emit(ser.dumps_canonical(obj) + "\n", output)


def _convert_backend(obj, backend: str | None, current: str):
    """Apply a --backend request; refuses the lossy float-to-rational
    direction."""
    if backend is None or backend == current:
        return obj
    if backend == RATIONAL and current == FLOAT:
        raise SchemaError("cannot convert float data to the rational backend; "
                          "supply rational ('p/q') inputs instead")
    return obj.as_float()


def _cmd_invert(args) -> int:
    model = ser.bayes_model_from_jsonable(_load_json(args.input, "model"))
    model = _convert_backend(model, args.backend, model.scalar)
    result = bayes_invert(model)
    _emit_json(ser.inversion_to_jsonable(result), args.output)
    return 0


def _supervised_from_args(args) -> SupervisedModel:
    model = ser.supervised_model_from_jsonable(_load_json(args.input, "model"))
    return _convert_backend(model, args.backend, model.scalar)


def _cmd_posterior(args) -> int:
    model = _supervised_from_args(args)
    s = ser.training_from_jsonable(_load_json(args.data, "training"))
    _emit_json(ser.inference_to_jsonable(sup_posterior(model, s)), args.output)
    return 0


def _cmd_predictive(args) -> int:
    model = _supervised_from_args(args)
    s = ser.training_from_jsonable(_load_json(args.data, "training"))
    t = ser.test_inputs_from_jsonable(_load_json(args.test, "test"))
    _emit_json(ser.inference_to_jsonable(sup_predictive(model, s, t)), args.output)
    return 0


def _cmd_gp_predict(args) -> int:
    gp = ser.gp_model_from_jsonable(_load_json(args.input, "gp config"))
    s = ser.read_training_csv(args.data)
    t = ser.read_test_csv(args.test)
    pred = gp_posterior_predictive(gp, s, t, jitter=args.jitter)
    _emit(ser.format_predictions_csv(t, pred), args.output)
    if args.output:
        _emit_json(ser.gaussian_to_jsonable(pred),
                   str(Path(args.output).with_suffix(".cov.json")))
    return 0


def _cmd_check_laws(args) -> int:
    reports = law_suite.run_checks(seed=args.seed, trials=args.trials,
                                   backend=args.backend or "both",
                                   tolerance=args.tolerance)
    total = sum(len(r.failures) for r in reports)
    _emit_json({"seed": args.seed,
                "trials": args.trials,
                "backend": args.backend or "both",
                "tolerance": args.tolerance,
                "checks": [r.to_jsonable() for r in reports],
                "total_failures": total},
               args.output)
    return 0 if total == 0 else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probmorph",
        description="Finite and Gaussian probability kernels: inversion, "
                    "conditioning, prediction, and law checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, backend_choices=(RATIONAL, FLOAT)):
        p.add_argument("--output", help="write the artifact here instead of stdout")
        if backend_choices:
            p.add_argument("--backend", choices=backend_choices,
                           help="force a scalar backend for the computation")

    p = sub.add_parser("invert", help="invert a finite Bayesian model")
    p.add_argument("--input", required=True, help="model JSON (prior + sampling)")
    add_common(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("posterior", help="condition on training pairs")
    p.add_argument("--input", required=True, help="supervised model JSON")
    p.add_argument("--data", required=True, help="training pairs JSON")
    add_common(p)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("predictive", help="posterior-predictive at test inputs")
    p.add_argument("--input", required=True, help="supervised model JSON")
    p.add_argument("--data", required=True, help="training pairs JSON")
    p.add_argument("--test", required=True, help="test inputs JSON")
    add_common(p)
    p.set_defaults(func=_cmd_predictive)

    p = sub.add_parser("gp-predict", help="GP regression from CSV")
    p.add_argument("--input", required=True, help="GP config JSON")
    p.add_argument("--data", required=True, help="training CSV (x[,..],y)")
    p.add_argument("--test", required=True, help="test CSV (x[,..])")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="explicit ridge added to the training covariance")
    add_common(p, backend_choices=None)
    p.set_defaults(func=_cmd_gp_predict)

    p = sub.add_parser("check-laws", help="randomized law checking")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--backend", choices=(RATIONAL, FLOAT, "both"),
                   help="scalar backend(s) for the finite-law families")
    p.set_defaults(func=_cmd_check_laws)

    return parser


def _error_json(kind: str, exc: Exception) -> str:
    payload = {"error": {"type": kind, "message": str(exc)}}
    cond = getattr(exc, "condition", None)
    if cond is not None:
        # JSON has no infinity: an exactly singular matrix reads null.
        cond = float(cond)
        payload["error"]["condition"] = cond if math.isfinite(cond) else None
    return ser.dumps_canonical(payload) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, BackendMismatchError) as e:
        sys.stderr.write(_error_json(type(e).__name__, e))
        return 2
    except NumericalError as e:
        sys.stderr.write(_error_json(type(e).__name__, e))
        return 3
    except OSError as e:
        sys.stderr.write(_error_json("OSError", e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
