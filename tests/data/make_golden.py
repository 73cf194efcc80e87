"""Write the golden CLI fixtures under tests/data/golden/.

    PYTHONPATH=src python tests/data/make_golden.py

Each finite case directory holds the inputs (model.json,
supervised.json, pairs.json, test.json) and the rational artifacts that
``invert``, ``posterior`` and ``predictive`` wrote for them (invert.json,
posterior.json, predictive.json), and the artifacts the same calls
wrote with ``--backend float`` (invert-float.json, posterior-float.json,
predictive-float.json).  Each GP case directory holds a GP
config and training and test CSVs (gp.json, train.csv, test.csv) and
what ``gp-predict --output gp-predict.csv`` wrote for them
(gp-predict.csv, gp-predict.cov.json).  check-laws.json is the report
of ``check-laws --seed 3 --trials 40 --tolerance 0``: at tolerance 0
rounding breaks laws in every float finite family, so its failure
records pin the order of each family's draws and the shape of a record.
tests/test_golden.py checks that the CLI still writes exactly those
bytes.  The expected artifacts are a reference, not a convenience:
rewrite them only for a deliberate change of output, and say so in
CHANGES.md.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from probmorph.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _row(rng, n: int, zero_cols=()) -> list:
    nums = rng.integers(1, 10, size=n)
    nums[list(zero_cols)] = 0
    total = int(nums.sum())
    return [str(Fraction(int(v), total)) for v in nums]


def _random_case(seed: int, n_hyp: int, n_inputs: int, labels: list,
                 n_pairs: int, n_test: int, n_params: int, n_obs: int,
                 n_null: int) -> dict:
    rng = np.random.default_rng(seed)
    thetas = [f"t{i}" for i in range(n_params)]
    xs = [f"x{j}" for j in range(n_obs)]
    nulls = sorted(int(c) for c in rng.choice(n_obs, n_null, replace=False))
    hyps = [f"h{i}" for i in range(n_hyp)]
    inputs = [f"a{i}" for i in range(n_inputs)]
    return {
        "model": {
            "prior": {"labels": thetas, "weights": _row(rng, n_params),
                      "scalar": "rational"},
            "sampling": {"source": thetas, "target": xs,
                         "rows": [_row(rng, n_obs, nulls) for _ in thetas]}},
        "supervised": {
            "prior": {"labels": hyps, "weights": _row(rng, n_hyp),
                      "scalar": "rational"},
            "inputs": inputs,
            "labels": labels,
            "supervisors": [[_row(rng, len(labels)) for _ in inputs]
                            for _ in hyps]},
        "pairs": {"pairs": [[inputs[int(rng.integers(n_inputs))],
                             labels[int(rng.integers(len(labels)))]]
                            for _ in range(n_pairs)]},
        "test": {"points": [inputs[int(i)]
                            for i in rng.integers(n_inputs, size=n_test)]},
    }


# A hand-written case where the observed labels are impossible under
# every hypothesis: posterior and predictive fall back to the prior.
NULL_EVIDENCE = {
    "model": {
        "prior": {"labels": ["wet", "dry", "storm"],
                  "weights": ["1/2", "1/2", "0"], "scalar": "rational"},
        "sampling": {"source": ["wet", "dry", "storm"],
                     "target": ["rain", "sun", "hail"],
                     "rows": [["3/4", "1/4", "0"], ["1/5", "4/5", "0"],
                              ["0", "0", "1"]]}},
    "supervised": {
        "prior": {"labels": ["fair", "loaded"], "weights": ["2/3", "1/3"],
                  "scalar": "rational"},
        "inputs": ["left", "right"],
        "labels": ["heads", "tails"],
        "supervisors": [[["1", "0"], ["1/2", "1/2"]],
                        [["1", "0"], ["1/3", "2/3"]]]},
    "pairs": {"pairs": [["right", "tails"], ["left", "tails"]]},
    "test": {"points": ["right"]},
}

CASES = {
    "small": _random_case(11, n_hyp=3, n_inputs=4, labels=[0, 1],
                          n_pairs=1, n_test=1, n_params=5, n_obs=4, n_null=1),
    "medium": _random_case(12, n_hyp=5, n_inputs=6, labels=[0, 1, 2],
                           n_pairs=5, n_test=2, n_params=12, n_obs=10, n_null=2),
    "wide": _random_case(13, n_hyp=7, n_inputs=3, labels=["lo", "mid", "hi", "top"],
                         n_pairs=6, n_test=3, n_params=8, n_obs=16, n_null=3),
    "null-evidence": NULL_EVIDENCE,
}


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([repr(v) for v in row] for row in rows)
    return buf.getvalue()


def _gp_case(seed: int, dim: int, mean: dict, n_train: int = 12,
             n_test: int = 5) -> dict:
    """A GP config with training outputs sin(sum of coordinates) plus
    noise, on uniform inputs in [-3, 3]^dim."""
    rng = np.random.default_rng(seed)
    header = ["x"] if dim == 1 else [f"x{i + 1}" for i in range(dim)]
    train_x = rng.uniform(-3.0, 3.0, size=(n_train, dim))
    train_y = np.sin(train_x.sum(axis=1)) + 0.2 * rng.normal(size=n_train)
    test_x = rng.uniform(-3.0, 3.0, size=(n_test, dim))
    return {
        "gp": {"kernel": {"family": "squared-exponential",
                          "length_scale": float(rng.uniform(0.8, 1.5)),
                          "amplitude": float(rng.uniform(0.8, 1.5))},
               "mean": mean,
               "noise_var": float(rng.uniform(0.05, 0.3))},
        "train": _csv(header + ["y"], np.column_stack([train_x, train_y]).tolist()),
        "test": _csv(header, test_x.tolist()),
    }


GP_CASES = {
    "gp-1d-constant": _gp_case(21, dim=1, mean={"type": "constant", "value": 0.25}),
    "gp-2d": _gp_case(22, dim=2, mean={"type": "zero"}),
}


def commands(d: Path) -> dict:
    """The CLI call that writes each artifact of a case directory."""
    return {
        "invert": ["invert", "--input", str(d / "model.json")],
        "posterior": ["posterior", "--input", str(d / "supervised.json"),
                      "--data", str(d / "pairs.json")],
        "predictive": ["predictive", "--input", str(d / "supervised.json"),
                       "--data", str(d / "pairs.json"),
                       "--test", str(d / "test.json")],
    }


# The extra arguments, and the artifact suffix, of each backend a finite
# case is run on.
BACKENDS = {"": [], "-float": ["--backend", "float"]}


def gp_command(d: Path, output: Path) -> list:
    """The CLI call that writes a GP case's prediction CSV to output and
    its covariance next to it, as output.with_suffix(".cov.json")."""
    return ["gp-predict", "--input", str(d / "gp.json"),
            "--data", str(d / "train.csv"), "--test", str(d / "test.csv"),
            "--output", str(output)]


# The law-check run behind check-laws.json, and the exit code it gives:
# 4, because the report lists counterexamples.
LAW_COMMAND = ["check-laws", "--seed", "3", "--trials", "40", "--tolerance", "0"]
LAW_EXIT = 4
LAW_REPORT = GOLDEN / "check-laws.json"


def write_case(name: str, case: dict) -> None:
    d = GOLDEN / name
    d.mkdir(parents=True, exist_ok=True)
    for stem, obj in case.items():
        (d / f"{stem}.json").write_text(json.dumps(obj, indent=1) + "\n")
    for op, argv in commands(d).items():
        for suffix, extra in BACKENDS.items():
            if main(argv + extra + ["--output", str(d / f"{op}{suffix}.json")]) != 0:
                sys.exit(f"{name}: {op}{suffix} failed")


def write_gp_case(name: str, case: dict) -> None:
    d = GOLDEN / name
    d.mkdir(parents=True, exist_ok=True)
    (d / "gp.json").write_text(json.dumps(case["gp"], indent=1) + "\n")
    (d / "train.csv").write_text(case["train"])
    (d / "test.csv").write_text(case["test"])
    if main(gp_command(d, d / "gp-predict.csv")) != 0:
        sys.exit(f"{name}: gp-predict failed")


def write_law_report() -> None:
    if main(LAW_COMMAND + ["--output", str(LAW_REPORT)]) != LAW_EXIT:
        sys.exit(f"check-laws did not exit {LAW_EXIT}")


if __name__ == "__main__":
    for name, case in CASES.items():
        write_case(name, case)
    for name, case in GP_CASES.items():
        write_gp_case(name, case)
    write_law_report()
