"""Write the golden CLI fixtures under tests/data/golden/.

    PYTHONPATH=src python tests/data/make_golden.py

Each case directory holds the inputs (model.json, supervised.json,
pairs.json, test.json) and the rational artifacts that ``invert``,
``posterior`` and ``predictive`` wrote for them (invert.json,
posterior.json, predictive.json).  tests/test_golden.py checks that the
CLI still writes exactly those bytes.  The expected artifacts are a
reference, not a convenience: rewrite them only for a deliberate change
of output, and say so in CHANGES.md.
"""

from __future__ import annotations

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


def write_case(name: str, case: dict) -> None:
    d = GOLDEN / name
    d.mkdir(parents=True, exist_ok=True)
    for stem, obj in case.items():
        (d / f"{stem}.json").write_text(json.dumps(obj, indent=1) + "\n")
    for op, argv in commands(d).items():
        if main(argv + ["--output", str(d / f"{op}.json")]) != 0:
            sys.exit(f"{name}: {op} failed")


if __name__ == "__main__":
    for name, case in CASES.items():
        write_case(name, case)
