"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces the public functions of each module under
``probmorph`` (every name that refers to them, in every probmorph
module), the ``__post_init__`` of its dataclasses, ``gaussian._checked_solve``
and six ``numpy.linalg`` functions with wrappers that record a span per
call.  A layer's self time is the time spent in its spans minus the time
covered by their child spans.  ``uninstall`` puts every original back;
the timed runs never install anything.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "serialize", "measures", "kernels", "bayes", "gaussian",
          "supervised", "laws")
LINALG = ("cond", "solve", "eigvalsh", "eigh", "det", "cholesky")
EMIT_NAMES = ("dumps_canonical", "format_predictions_csv")
EMIT_SUFFIXES = ("_to_jsonable",)
CLI_INPUT_FLAGS = ("--input", "--data", "--test")

# Per-layer metric names in the order they are reported.
METRICS = (
    ("cli.self_ms", "ms"),
    ("serialize.parse_ms", "ms"),
    ("serialize.emit_ms", "ms"),
    ("serialize.bytes_in", "bytes"),
    ("serialize.bytes_out", "bytes"),
    ("measures.self_ms", "ms"),
    ("measures.calls", "count"),
    ("measures.labels_built", "count"),
    ("kernels.self_ms", "ms"),
    ("kernels.calls", "count"),
    ("kernels.entries_validated", "count"),
    ("bayes.self_ms", "ms"),
    ("bayes.calls", "count"),
    ("bayes.entries_inverted", "count"),
    ("gaussian.self_ms", "ms"),
    ("gaussian.calls", "count"),
    ("supervised.self_ms", "ms"),
    ("supervised.calls", "count"),
    ("supervised.sampling_columns", "count"),
    ("supervised.cov_evals", "count"),
    ("linalg.self_ms", "ms"),
    ("linalg.calls", "count"),
    ("laws.self_ms", "ms"),
    ("trace.uncovered_ms", "ms"),
    ("trace.job_cpu_p50_ms", "ms"),
)


def _span_name(layer: str, fname: str) -> str:
    """serialize splits into emit (dumps_canonical, *_to_jsonable,
    format_predictions_csv) and parse (the rest: *_from_jsonable,
    read_*_csv)."""
    if layer != "serialize":
        return layer
    if fname in EMIT_NAMES or fname.endswith(EMIT_SUFFIXES):
        return "serialize.emit"
    return "serialize.parse"


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.top_s = 0.0           # time inside outermost spans
        self._stack: list = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, fn, before=None, after=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[span] += 1
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[span] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                else:
                    self.top_s += dur
            return after(result, *args, **kwargs) if after is not None else result

        return wrapper

    # -- work counters at layer boundaries -------------------------------------

    def _count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def _hooks(self, span: str, fname: str):
        c = self._count
        if fname == "main" and span == "cli":
            def before(argv=None):
                argv = list(argv or ())
                for flag, value in zip(argv, argv[1:]):
                    if flag in CLI_INPUT_FLAGS:
                        c("serialize.bytes_in", os.path.getsize(value))
            return before, None
        if fname in EMIT_NAMES:
            def after(result, *a, **k):
                c("serialize.bytes_out", len(result.encode()))
                return result
            return None, after
        if fname == "finite_kernel":
            def before(source, target, *a, **k):
                c("kernels.entries_validated", source.size * target.size)
            return before, None
        if fname == "bayes_invert":
            def before(model, *a, **k):
                c("bayes.entries_inverted", model.observations.size * model.parameters.size)
            return before, None
        if fname == "sampling_kernel":
            def after(result, *a, **k):
                c("supervised.sampling_columns", result.target.size)
                return result
            return None, after
        if fname == "squared_exponential":
            def after(cov_fn, *a, **k):
                @functools.wraps(cov_fn)
                def counted(x, y):
                    c("supervised.cov_evals", 1)
                    return cov_fn(x, y)
                return counted
            return None, after
        if fname == "__post_init__" and span == "measures":
            def after(result, space, *a, **k):
                if type(space).__name__ == "FiniteSpace":
                    c("measures.labels_built", len(space.labels))
                return result
            return None, after
        return None, None

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        mods = {layer: sys.modules[f"probmorph.{layer}"] for layer in LAYERS}
        namespaces = [m.__dict__ for m in mods.values()] + [sys.modules["probmorph"].__dict__]
        replace: dict = {}
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not name.startswith("_")
                                                or name == "_checked_solve"):
                    span = _span_name(layer, name)
                    replace[id(obj)] = (obj, self._wrap(span, obj, *self._hooks(span, name)))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    orig = vars(obj)["__post_init__"]
                    wrapped = self._wrap(layer, orig, *self._hooks(layer, "__post_init__"))
                    setattr(obj, "__post_init__", wrapped)
                    self._undo.append((obj, "__post_init__", orig))
        for ns in namespaces:
            for name, obj in list(ns.items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[name] = hit[1]
                    self._undo.append((ns, name, obj))
        for name in LINALG:
            orig = getattr(np.linalg, name)
            setattr(np.linalg, name, self._wrap("linalg", orig))
            self._undo.append((np.linalg, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._undo.clear()

    # -- report -----------------------------------------------------------------

    def per_job(self, jobs: int, job_wall_s: float, job_cpu_p50_s: float) -> dict:
        ms = {f"{span}.self_ms": self.self_s[span] * 1e3 / jobs
              for span in ("cli", "measures", "kernels", "bayes", "gaussian",
                           "supervised", "linalg", "laws")}
        ms["serialize.parse_ms"] = self.self_s["serialize.parse"] * 1e3 / jobs
        ms["serialize.emit_ms"] = self.self_s["serialize.emit"] * 1e3 / jobs
        ms["trace.uncovered_ms"] = (job_wall_s - self.top_s) * 1e3 / jobs
        ms["trace.job_cpu_p50_ms"] = job_cpu_p50_s * 1e3
        for layer in ("measures", "kernels", "bayes", "gaussian", "supervised", "linalg"):
            ms[f"{layer}.calls"] = self.calls[layer] / jobs
        for name in ("serialize.bytes_in", "serialize.bytes_out", "measures.labels_built",
                     "kernels.entries_validated", "bayes.entries_inverted",
                     "supervised.sampling_columns", "supervised.cov_evals"):
            ms[name] = self.counts[name] / jobs
        return {name: {"value": ms[name], "unit": unit} for name, unit in METRICS}
