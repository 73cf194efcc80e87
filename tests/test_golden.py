"""The CLI reproduces committed rational, float and GP artifacts, and one
law-check report, byte for byte.

The fixtures under tests/data/golden/ were written by
tests/data/make_golden.py; see its docstring before regenerating them.
"""

import importlib.util
from pathlib import Path

import pytest

from probmorph.cli import main

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("make_golden", DATA / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

CASES = sorted(p.name for p in make_golden.GOLDEN.iterdir() if p.is_dir())


def test_every_generated_case_is_committed():
    assert CASES == sorted([*make_golden.CASES, *make_golden.GP_CASES])


@pytest.mark.parametrize("op", ["invert", "posterior", "predictive"])
@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_artifact_is_byte_identical(tmp_path, case, op):
    d = make_golden.GOLDEN / case
    out = tmp_path / f"{op}.json"
    assert main(make_golden.commands(d)[op] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (d / f"{op}.json").read_bytes()


@pytest.mark.parametrize("op", ["invert", "posterior", "predictive"])
@pytest.mark.parametrize("case", sorted(make_golden.CASES))
def test_float_artifact_is_byte_identical(tmp_path, case, op):
    d = make_golden.GOLDEN / case
    out = tmp_path / f"{op}.json"
    argv = make_golden.commands(d)[op] + make_golden.BACKENDS["-float"]
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == (d / f"{op}-float.json").read_bytes()


@pytest.mark.parametrize("case", sorted(make_golden.GP_CASES))
def test_gp_artifacts_are_byte_identical(tmp_path, case):
    d = make_golden.GOLDEN / case
    assert main(make_golden.gp_command(d, tmp_path / "gp-predict.csv")) == 0
    for name in ("gp-predict.csv", "gp-predict.cov.json"):
        assert (tmp_path / name).read_bytes() == (d / name).read_bytes()


def test_law_report_is_byte_identical(tmp_path):
    out = tmp_path / "check-laws.json"
    assert main(make_golden.LAW_COMMAND + ["--output", str(out)]) == make_golden.LAW_EXIT
    assert out.read_bytes() == make_golden.LAW_REPORT.read_bytes()
