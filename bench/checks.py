"""Output checks, each made apart from the program.

Every operation of a job gets one of three verdicts:

* ``OK``: its output agrees with the benchmark's own computation;
* ``FAILED``: it produced no usable output (nonzero exit code, missing or
  unparseable artifact); such operations are counted in ``failed``;
* anything else is a description of a wrong output, which makes the
  run's ``correct`` false.

The references use only the standard library and numpy: exact Bayes'
rule over ``Fraction``, a broadcast-Gram Cholesky GP, and the
conjugate-normal closed form.  ``corrupt`` alters one output of each
workload so that ``self_test`` can show a checker is not vacuous.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

OK = "ok"
FAILED = "failed"

GP_TOL = 1e-8          # absolute, on predictive mean, sd and covariance
GRID_REL_TOL = 1e-3    # relative, on posterior mean and variance


def _read(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# exact-cli

def bayes_rule(model: dict) -> dict:
    """The inversion artifact Bayes' rule gives, with the prior row and a
    null-point entry for each observation of zero predictive mass."""
    prior = [Fraction(w) for w in model["prior"]["weights"]]
    rows = [[Fraction(v) for v in r] for r in model["sampling"]["rows"]]
    params, obs = model["sampling"]["source"], model["sampling"]["target"]
    out_rows, nulls = [], []
    for j, x in enumerate(obs):
        joint = [p * r[j] for p, r in zip(prior, rows)]
        evidence = sum(joint)
        if evidence == 0:
            nulls.append(x)
            out_rows.append(prior)
        else:
            out_rows.append([v / evidence for v in joint])
    return {"source": obs, "target": params, "rows": out_rows, "null_points": nulls}


def _supervisor(sup: dict, h: int, x, y) -> Fraction:
    return Fraction(sup["supervisors"][h][sup["inputs"].index(x)][sup["labels"].index(y)])


def posterior_rule(sup: dict, pairs: list) -> tuple:
    """prior x prod of likelihoods, normalised; the prior with
    null_evidence when the training pairs have zero probability."""
    prior = [Fraction(w) for w in sup["prior"]["weights"]]
    post = [p * math.prod((_supervisor(sup, h, x, y) for x, y in pairs), start=Fraction(1))
            for h, p in enumerate(prior)]
    total = sum(post)
    if total == 0:
        return prior, True
    return [w / total for w in post], False


def predictive_rule(sup: dict, pairs: list, points: list) -> tuple:
    """sum over hypotheses of posterior x prod of supervisor rows at the
    test points, over label tuples in row-major order."""
    post, null = posterior_rule(sup, pairs)
    tuples = list(itertools.product(sup["labels"], repeat=len(points)))
    weights = [sum(post[h] * math.prod((_supervisor(sup, h, x, y)
                                        for x, y in zip(points, ys)), start=Fraction(1))
                   for h in range(len(post)))
               for ys in tuples]
    labels = [list(ys) if len(points) > 1 else ys[0] for ys in tuples]
    return labels, weights, null


def _fractions(values) -> list:
    return [Fraction(v) for v in values]


def check_invert(text: str | None, model: dict) -> str:
    if text is None:
        return FAILED
    try:
        art = json.loads(text)
    except json.JSONDecodeError:
        return FAILED
    ref = bayes_rule(model)
    k = art.get("kernel", {})
    if k.get("source") != ref["source"] or k.get("target") != ref["target"]:
        return "inversion has the wrong spaces"
    if art.get("null_points") != ref["null_points"]:
        return f"null points {art.get('null_points')} != {ref['null_points']}"
    rows = k.get("rows", [])
    if len(rows) != len(ref["rows"]):
        return "inversion has the wrong number of rows"
    for lab, got, want in zip(ref["source"], rows, ref["rows"]):
        if _fractions(got) != want:
            return f"inverse row at {lab!r} differs from Bayes' rule"
    return OK


def check_measure(text: str | None, labels: list, weights: list, null: bool) -> str:
    if text is None:
        return FAILED
    try:
        art = json.loads(text)
    except json.JSONDecodeError:
        return FAILED
    if art.get("scalar") != "rational" or art.get("labels") != labels:
        return "measure has the wrong labels or backend"
    if art.get("null_evidence") is not null:
        return "null_evidence flag is wrong"
    if _fractions(art.get("weights", [])) != weights:
        return "weights differ from the exact reference"
    return OK


def exact_cli_references(w) -> dict:
    pairs = [tuple(p) for p in w.pairs["pairs"]]
    post, post_null = posterior_rule(w.supervised, pairs)
    return {"posterior": (w.supervised["prior"]["labels"], post, post_null),
            "predictive": predictive_rule(w.supervised, pairs, w.test["points"])}


def check_exact_cli(w, op: str, code: int, text: str | None, refs: dict) -> str:
    if code != 0:
        return FAILED
    if op == "invert":
        return check_invert(text, w.model)
    if op == "invert-control-chars":
        return check_invert(text, w.control)
    return check_measure(text, *refs[op])


# ---------------------------------------------------------------------------
# gp-regression

def gp_reference(config: dict, train_x, train_y, test_x) -> tuple:
    """Predictive mean and covariance from a broadcast Gram matrix and
    Cholesky solves (Rasmussen & Williams, Alg. 2.1)."""
    ell = config["kernel"]["length_scale"]
    a2 = config["kernel"]["amplitude"] ** 2
    c = config["mean"].get("value", 0.0)

    def gram(u, v):
        d = u[:, None] - v[None, :]
        return a2 * np.exp(-d * d / (2.0 * ell * ell))

    chol = np.linalg.cholesky(gram(train_x, train_x)
                              + config["noise_var"] * np.eye(len(train_x)))
    cross = gram(test_x, train_x)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, train_y - c))
    v = np.linalg.solve(chol, cross.T)
    return c + cross @ alpha, gram(test_x, test_x) - v.T @ v


def check_gp(csv_text: str | None, cov_text: str | None, test_x, ref_mean, ref_cov) -> str:
    if csv_text is None or cov_text is None:
        return FAILED
    try:
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        xs = np.array([float(r["x"]) for r in rows])
        mean = np.array([float(r["mean"]) for r in rows])
        sd = np.array([float(r["sd"]) for r in rows])
        side = json.loads(cov_text)
        side_mean = np.asarray(side["mean"], dtype=np.float64)
        side_cov = np.asarray(side["cov"], dtype=np.float64)
    except (KeyError, TypeError, ValueError):
        return FAILED
    if xs.shape != test_x.shape or not np.array_equal(xs, test_x):
        return "prediction rows do not match the test points"
    if side_mean.shape != ref_mean.shape or side_cov.shape != ref_cov.shape:
        return "sidecar has the wrong shape"
    ref_sd = np.sqrt(np.maximum(np.diag(ref_cov), 0.0))
    for what, got, want in (("mean", mean, ref_mean), ("sd", sd, ref_sd),
                            ("sidecar mean", side_mean, ref_mean),
                            ("sidecar cov", side_cov, ref_cov)):
        err = float(np.max(np.abs(got - want)))
        if not err <= GP_TOL:
            return f"{what} off by {err:.3g} (tolerance {GP_TOL})"
    return OK


# ---------------------------------------------------------------------------
# grid-bridge

def conjugate_normal(p: dict, y: float) -> tuple:
    """Posterior mean and variance of x ~ N(m, s), y | x ~ N(a x + b, n)."""
    m, s, a, b, n = p["prior_mean"], p["prior_var"], p["a"], p["b"], p["noise_var"]
    pred_var = a * a * s + n
    return m + s * a * (y - a * m - b) / pred_var, s * n / pred_var


def check_grid(p: dict, result) -> str:
    y, mean, var = result
    want_mean, want_var = conjugate_normal(p, y)
    for what, got, want in (("mean", mean, want_mean), ("variance", var, want_var)):
        rel = abs(got - want) / max(abs(got), abs(want))
        if not rel <= GRID_REL_TOL:
            return f"posterior {what} {got!r} vs closed form {want!r} (rel {rel:.3g})"
    return OK


# ---------------------------------------------------------------------------
# finite-laws

def check_laws(failures: list) -> str:
    return OK if not failures else f"counterexamples: {failures[:3]}"


# ---------------------------------------------------------------------------
# one entry point per workload

class Verdicts:
    """Tallies of verdicts over the operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []
        self.failed_ops: set = set()

    def add(self, op: str, verdict: str) -> None:
        self.attempted += 1
        if verdict == FAILED:
            self.failed += 1
            self.failed_ops.add(op)
        elif verdict != OK:
            self.wrong.append(f"{op}: {verdict}")


def load_outputs(w, i: int, result):
    """What the checks read for job i: artifact texts for the CLI
    workloads, the returned values otherwise."""
    if w.name == "exact-cli":
        paths = w.outputs(i)
        return tuple((op, code, _read(paths[op]) if code == 0 else None)
                     for op, code in zip(w.ops, result))
    if w.name == "gp-regression":
        paths = w.outputs(i)
        code = result[0]
        return (code, _read(paths["csv"]) if code == 0 else None,
                _read(paths["cov"]) if code == 0 else None)
    return result


def verify(w, loaded: list, first_index: int) -> Verdicts:
    """Check every job's outputs.  Identical artifacts get one check."""
    v = Verdicts()
    memo: dict = {}
    if w.name == "exact-cli":
        refs = exact_cli_references(w)
        for out in loaded:
            for op, code, text in out:
                key = (op, code, text)
                if key not in memo:
                    memo[key] = check_exact_cli(w, op, code, text, refs)
                v.add(op, memo[key])
    elif w.name == "gp-regression":
        ref_mean, ref_cov = gp_reference(w.config, w.train_x, w.train_y, w.test_x)
        for code, csv_text, cov_text in loaded:
            key = (code, csv_text, cov_text)
            if key not in memo:
                memo[key] = (FAILED if code != 0 else
                             check_gp(csv_text, cov_text, w.test_x, ref_mean, ref_cov))
            v.add("gp-predict", memo[key])
    elif w.name == "grid-bridge":
        for i, res in enumerate(loaded, start=first_index):
            v.add(w.ops[0], check_grid(w.models[i % w.round_size], res))
    else:
        for res in loaded:
            for op, failures in zip(w.ops, res):
                v.add(op, check_laws(failures))
    return v


def corrupt(w, loaded):
    """One output of a job altered in a way its checker must reject:
    one Fraction changed, a mean shifted, a moment off by 1e-2, or a
    counterexample record added."""
    if w.name == "exact-cli":
        out = list(loaded)
        op, code, text = out[0]
        art = json.loads(text)
        row = art["kernel"]["rows"][-1]
        row[0] = str(Fraction(row[0]) + Fraction(1, 10**6))
        out[0] = (op, code, json.dumps(art))
        return tuple(out)
    if w.name == "gp-regression":
        code, csv_text, cov_text = loaded
        lines = csv_text.splitlines(keepends=True)
        x, mean, sd = lines[1].rstrip("\n").split(",")
        lines[1] = f"{x},{float(mean) + 1e-6!r},{sd}\n"
        return (code, "".join(lines), cov_text)
    if w.name == "grid-bridge":
        y, mean, var = loaded
        return (y, mean * (1 + 1e-2), var)
    bad = [list(f) for f in loaded]
    bad[0].append({"trial": 0, "law": "compose-associative"})
    return bad


def self_test(w, loaded, index: int) -> list:
    """Problems found when feeding the checker a clean and a corrupted
    copy of one job's outputs: a clean copy must pass (control-character
    failures aside), a corrupted one must not."""
    problems = []
    clean = verify(w, [loaded], index)
    if clean.wrong:
        problems.append(f"clean output rejected: {clean.wrong[0]}")
    bad = verify(w, [corrupt(w, loaded)], index)
    if not bad.wrong and bad.failed == clean.failed:
        problems.append(f"{w.name} checker accepted a corrupted output")
    return problems
