"""The benchmark's four workloads: input generation and the job each one
repeats.

A workload is built once per run from ``--seed`` (this is its set-up:
inputs are generated and, for the CLI workloads, written to files), and
then runs jobs.  ``job(i)`` performs one fixed bundle of library or CLI
calls and returns what the checks in ``checks.py`` need; the checks run
after the timed loop, never inside it.  Jobs come in rounds of
``round_size``: within a round job ``i`` uses input ``i % round_size``,
and every run attempts whole rounds only, so each run replays the same
input set and the share of failed operations is the same in every run.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# Library calls go through the module objects so that the tracer's
# wrappers (tracing.py) see them.
from probmorph import bayes, cli, gaussian, laws, measures
from probmorph.measures import FLOAT, RATIONAL

# --- exact-cli sizes -------------------------------------------------------
INVERT_PARAMS = 32           # |Theta| of the inverted model
INVERT_OBS = 32              # |X| of the inverted model
INVERT_NULL_COLUMNS = 4      # observation columns with zero mass everywhere
SUP_HYPOTHESES = 5
SUP_INPUTS = 6
SUP_LABELS = (0, 1, 2)
SUP_PAIRS = 5                # sampling_kernel builds 3**5 = 243 columns
SUP_TEST_POINTS = 2
# Labels with control characters.  serialize._write escapes only '\' and
# '"', so this inversion artifact is not valid JSON although the CLI exits
# 0.  The model does not depend on the seed, so the failure is the same
# in every run.
CONTROL_MODEL = {
    "prior": {"labels": ["wet", "dry"], "weights": ["1/3", "2/3"],
              "scalar": "rational"},
    "sampling": {"source": ["wet", "dry"], "target": ["line\nbreak", "tab\tstop"],
                 "rows": [["3/4", "1/4"], ["1/5", "4/5"]]},
}

# --- gp-regression sizes ---------------------------------------------------
GP_TRAIN = 100
GP_TEST = 32
GP_X_RANGE = (-6.0, 6.0)

# --- grid-bridge sizes -----------------------------------------------------
GRID_HALF_WIDTH_SIGMAS = 8.0
GRID_STEP_SIGMAS = 0.04      # 16 / 0.04 = 400 cells per axis
GRID_MODELS = 8              # one random model per job of a round

# --- finite-laws sizes -----------------------------------------------------
# The law families draw their own random spaces, and the work of one draw
# varies tenfold.  A fixed pool of job seeds keeps the work of a round the
# same for every --seed, which only sets the order of the pool.
LAW_POOL = 64                # jobs per round, one pool seed each
LAW_TRIALS = 1               # trials per family and backend in one job
LAW_TOLERANCE = 1e-9


def _rational_row(rng, n: int, zero_cols=()) -> list:
    """A random probability row of 'p/q' strings with the given columns
    forced to zero."""
    nums = rng.integers(1, 10, size=n)
    nums[list(zero_cols)] = 0
    total = int(nums.sum())
    return [str(Fraction(int(v), total)) for v in nums]


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


class ExactCli:
    """invert (32 x 32, with null columns), posterior and predictive on a
    small supervised model, and the control-character invert, all through
    ``probmorph.cli.main`` on the rational backend."""

    name = "exact-cli"
    ops = ("invert", "posterior", "predictive", "invert-control-chars")
    round_size = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        thetas = [f"t{i}" for i in range(INVERT_PARAMS)]
        xs = [f"x{j}" for j in range(INVERT_OBS)]
        nulls = sorted(int(c) for c in rng.choice(INVERT_OBS, INVERT_NULL_COLUMNS,
                                                  replace=False))
        self.model = {
            "prior": {"labels": thetas, "weights": _rational_row(rng, INVERT_PARAMS),
                      "scalar": "rational"},
            "sampling": {"source": thetas, "target": xs,
                         "rows": [_rational_row(rng, INVERT_OBS, nulls)
                                  for _ in thetas]},
        }
        hyps = [f"h{i}" for i in range(SUP_HYPOTHESES)]
        inputs = [f"a{i}" for i in range(SUP_INPUTS)]
        self.supervised = {
            "prior": {"labels": hyps, "weights": _rational_row(rng, SUP_HYPOTHESES),
                      "scalar": "rational"},
            "inputs": inputs,
            "labels": list(SUP_LABELS),
            "supervisors": [[_rational_row(rng, len(SUP_LABELS)) for _ in inputs]
                            for _ in hyps],
        }
        self.pairs = {"pairs": [[inputs[int(rng.integers(SUP_INPUTS))],
                                 SUP_LABELS[int(rng.integers(len(SUP_LABELS)))]]
                                for _ in range(SUP_PAIRS)]}
        self.test = {"points": [inputs[int(i)] for i in
                                rng.integers(SUP_INPUTS, size=SUP_TEST_POINTS)]}
        self.control = CONTROL_MODEL
        self.files = {
            "model": _write_json(workdir / "model.json", self.model),
            "supervised": _write_json(workdir / "supervised.json", self.supervised),
            "pairs": _write_json(workdir / "pairs.json", self.pairs),
            "test": _write_json(workdir / "test.json", self.test),
            "control": _write_json(workdir / "control.json", self.control),
        }

    def outputs(self, i: int) -> dict:
        return {op: str(self.workdir / f"{op}-{i}.json") for op in self.ops}

    def job(self, i: int):
        f, out = self.files, self.outputs(i)
        return (
            cli.main(["invert", "--input", f["model"], "--output", out["invert"]]),
            cli.main(["posterior", "--input", f["supervised"], "--data", f["pairs"],
                      "--output", out["posterior"]]),
            cli.main(["predictive", "--input", f["supervised"], "--data", f["pairs"],
                      "--test", f["test"], "--output", out["predictive"]]),
            cli.main(["invert", "--input", f["control"],
                      "--output", out["invert-control-chars"]]),
        )


class GpRegression:
    """gp-predict --output on a 1-D CSV, writing the prediction CSV and
    its .cov.json sidecar."""

    name = "gp-regression"
    ops = ("gp-predict",)
    round_size = 1

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        self.config = {
            "kernel": {"family": "squared-exponential",
                       "length_scale": float(rng.uniform(0.8, 1.5)),
                       "amplitude": float(rng.uniform(0.8, 1.5))},
            "mean": {"type": "constant", "value": float(rng.normal(0.0, 0.5))},
            "noise_var": float(rng.uniform(0.05, 0.3)),
        }
        self.train_x = rng.uniform(*GP_X_RANGE, size=GP_TRAIN)
        self.train_y = np.sin(self.train_x) + 0.3 * rng.normal(size=GP_TRAIN)
        self.test_x = np.sort(rng.uniform(*GP_X_RANGE, size=GP_TEST))
        self.files = {"config": _write_json(workdir / "gp.json", self.config),
                      "train": str(workdir / "train.csv"),
                      "test": str(workdir / "test.csv")}
        with open(self.files["train"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y"])
            w.writerows(zip(map(repr, self.train_x.tolist()),
                            map(repr, self.train_y.tolist())))
        with open(self.files["test"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x"])
            w.writerows([repr(x)] for x in self.test_x.tolist())

    def outputs(self, i: int) -> dict:
        csv_path = self.workdir / f"pred-{i}.csv"
        return {"csv": str(csv_path), "cov": str(csv_path.with_suffix(".cov.json"))}

    def job(self, i: int):
        f = self.files
        return (cli.main(["gp-predict", "--input", f["config"], "--data", f["train"],
                          "--test", f["test"], "--output", self.outputs(i)["csv"]]),)


class GridBridge:
    """discretize_model_1d on a random 1-D Gaussian model at 400 cells per
    axis, bayes_invert of the finite model, and the posterior moments at
    one observation."""

    name = "grid-bridge"
    ops = ("discretize-invert-moments",)
    round_size = GRID_MODELS

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.models = []
        for _ in range(GRID_MODELS):
            m, s = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 2.0))
            a, b = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.5))
            n = float(rng.uniform(0.25, 4.0))
            # the observation sits 1.1 predictive sd above the predictive mean
            y_wanted = a * m + b + 1.1 * math.sqrt(a * a * s + n)
            self.models.append({"prior_mean": m, "prior_var": s, "a": a, "b": b,
                                "noise_var": n, "y_wanted": y_wanted})

    def job(self, i: int):
        p = self.models[i % GRID_MODELS]
        prior = gaussian.GaussianMeasure([p["prior_mean"]], [[p["prior_var"]]])
        t = gaussian.AffineGaussianMap([[p["a"]]], [p["b"]], [[p["noise_var"]]])
        finite = gaussian.discretize_model_1d(prior, t, GRID_HALF_WIDTH_SIGMAS,
                                              GRID_STEP_SIGMAS)
        inv = bayes.bayes_invert(finite)
        obs = np.asarray(finite.observations.labels)
        y = float(obs[int(np.argmin(np.abs(obs - p["y_wanted"])))])
        row = inv.kernel.row(y)
        mean = float(measures.expectation(row))
        var = float(measures.expectation(row, lambda c: (c - mean) ** 2))
        return (y, mean, var)


class FiniteLaws:
    """The six finite law families on both backends, one trial each,
    seeded by the job's place in the round."""

    name = "finite-laws"
    ops = tuple(f"{name}[{scalar}]" for name, _, _ in laws.FINITE_CHECKS
                for scalar in (RATIONAL, FLOAT))
    round_size = LAW_POOL

    def __init__(self, seed: int, workdir: Path):
        # Pool job 0 opens every round, so the cold start behind setup_s
        # runs the same job whatever the seed.
        rest = np.random.default_rng([seed, 4]).permutation(LAW_POOL - 1) + 1
        self.order = np.concatenate([[0], rest])

    def job(self, i: int):
        pool_seed = int(self.order[i % LAW_POOL])
        failures = []
        for _, check, _ in laws.FINITE_CHECKS:
            check = getattr(laws, check.__name__)
            for scalar in (RATIONAL, FLOAT):
                rng = np.random.default_rng([4, pool_seed])
                failures.append(check(rng, LAW_TRIALS, scalar, LAW_TOLERANCE))
        return failures


WORKLOADS = {w.name: w for w in (ExactCli, GpRegression, GridBridge, FiniteLaws)}
