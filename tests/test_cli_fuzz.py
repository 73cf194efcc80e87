"""Property-based fuzz of the CLI on mutated inputs.

Every subcommand that reads files gets its fixtures with a few leaves
replaced by bad values (bad 'p/q' literals, bools, null, exact and float
numbers mixed, out-of-range numbers, long strings), with entries deleted
or duplicated (ragged rows, count mismatches), and, for `posterior`, long
training sets; `gp-predict` also gets good and bad `--jitter` values.
Whatever the input, the CLI must exit 0, 2 or 3, print valid output on 0
and exactly one JSON error object otherwise, and never raise.
`check-laws` gets good and bad `--seed`, `--trials`, `--tolerance` and
`--backend` values, and must exit 0, 2 or 4, with a valid report on 0
and 4.
"""

import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from probmorph.cli import main

from test_cli import GP_CONFIG, MODEL, SUPERVISED

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])

BAD_SCALARS = st.one_of(
    st.sampled_from(["1/0", "abc", "1/", "0.5", "-1/3", "", " 1/2 ", "1e400",
                     "nan", "rational", "float", "1/" + "1" * 5000, "x" * 3000]),
    st.booleans(),
    st.none(),
    st.integers(-2, 3),
    st.sampled_from([10 ** 400, 2 ** 64]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
BAD_VALUES = st.one_of(BAD_SCALARS, st.lists(BAD_SCALARS, max_size=3),
                       st.sampled_from([{}, {"a": 1}]))


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, path + (i,))


@st.composite
def mutated(draw, doc, max_mutations=3):
    """``doc`` with one to ``max_mutations`` entries replaced, deleted or
    duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, max_mutations))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if op == "replace":
            parent[key] = draw(BAD_VALUES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


@st.composite
def long_training(draw):
    """Between 500 and 3,000 pairs, maybe with one label or input that
    the model does not know."""
    n = draw(st.integers(500, 3000))
    pairs = [["ab"[i % 3 % 2], i % 2] for i in range(n)]
    bad = draw(st.none() | st.integers(0, n - 1))
    if bad is not None:
        pairs[bad][draw(st.integers(0, 1))] = draw(BAD_SCALARS)
    return {"pairs": pairs}


TRAINING = {"pairs": [["a", 1], ["b", 0]]}
TEST = {"points": ["b", "a"]}
TRAIN_CSV = [["x", "y"], ["0.0", "1.0"], ["1.0", "2.0"], ["2.0", "0.5"]]
TEST_CSV = [["x"], ["0.5"], ["1.5"]]
BACKENDS = st.sampled_from([[], ["--backend", "float"], ["--backend", "rational"]])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(code, out, err, csv_output=False, codes=(0, 2, 3)):
    assert code in codes
    assert "Traceback" not in err
    if code in (0, 4):
        assert err == ""
        if csv_output:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0][-2:] == ["mean", "sd"]
            assert len({len(r) for r in rows}) == 1
        else:
            json.loads(out)
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert set(json.loads(err)) == {"error"}


def _write(tmp: Path, name: str, doc) -> str:
    path = tmp / name
    path.write_text(json.dumps(doc))
    return str(path)


def _write_csv(tmp: Path, name: str, rows) -> str:
    path = tmp / name
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [[json.dumps(c) if not isinstance(c, str) else c for c in r]
             if isinstance(r, list) else [json.dumps(r)] for r in rows])
    return str(path)


@FUZZ
@given(model=mutated(MODEL), backend=BACKENDS)
def test_invert_on_mutated_models(model, backend):
    with tempfile.TemporaryDirectory() as tmp:
        _check(*_run(["invert", "--input", _write(Path(tmp), "m.json", model)]
                     + backend))


@FUZZ
@given(model=st.one_of(mutated(SUPERVISED), st.just(SUPERVISED)),
       training=st.one_of(mutated(TRAINING), long_training(), st.just(TRAINING)),
       test=st.one_of(mutated(TEST), st.just(TEST)),
       predict=st.booleans(), backend=BACKENDS)
def test_posterior_and_predictive_on_mutated_inputs(model, training, test,
                                                    predict, backend):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["predictive" if predict else "posterior",
                "--input", _write(tmp, "m.json", model),
                "--data", _write(tmp, "p.json", training)]
        if predict:
            argv += ["--test", _write(tmp, "t.json", test)]
        _check(*_run(argv + backend))


@FUZZ
@given(config=st.one_of(mutated(dict(GP_CONFIG, mean={"type": "constant",
                                                      "value": 0.5})),
                        st.just(GP_CONFIG)),
       train=st.one_of(mutated(TRAIN_CSV, 2), st.just(TRAIN_CSV)),
       test=st.one_of(mutated(TEST_CSV, 2), st.just(TEST_CSV)),
       jitter=st.sampled_from([[], ["--jitter=1e-8"], ["--jitter=inf"], ["--jitter=nan"],
                               ["--jitter=-1"], ["--jitter=-0.05"]]))
def test_gp_predict_on_mutated_inputs(config, train, test, jitter):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _check(*_run(["gp-predict", "--input", _write(tmp, "gp.json", config),
                      "--data", _write_csv(tmp, "train.csv", train),
                      "--test", _write_csv(tmp, "test.csv", test)] + jitter),
               csv_output=True)


@FUZZ
@given(seed=st.sampled_from(["0", "3", "-1", str(2 ** 70)]),
       trials=st.sampled_from(["0", "1", "2", "-1"]),
       tolerance=st.sampled_from(["0", "1e-9", "1e308", "-1", "nan", "inf"]),
       backend=st.sampled_from([[], ["--backend", "rational"], ["--backend", "float"],
                                ["--backend", "both"]]))
def test_check_laws_on_drawn_flags(seed, trials, tolerance, backend):
    code, out, err = _run(["check-laws", f"--seed={seed}", f"--trials={trials}",
                           f"--tolerance={tolerance}"] + backend)
    _check(code, out, err, codes=(0, 2, 4))
    if code != 2:
        assert (json.loads(out)["total_failures"] == 0) == (code == 0)
