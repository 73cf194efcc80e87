"""Command-line behavior: artifacts, determinism, and exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import probmorph
import probmorph.kernels
from probmorph.cli import main

MODEL = {
    "prior": {"labels": ["t1", "t2"], "weights": ["1/5", "4/5"],
              "scalar": "rational"},
    "sampling": {"source": ["t1", "t2"], "target": ["x0", "x1"],
                 "rows": [["1/2", "1/2"], ["1/4", "3/4"]]},
}

SUPERVISED = {
    "prior": {"labels": ["t1", "t2"], "weights": ["1/2", "1/2"],
              "scalar": "rational"},
    "inputs": ["a", "b"],
    "labels": [0, 1],
    "supervisors": [
        [["9/10", "1/10"], ["1/10", "9/10"]],
        [["1/2", "1/2"], ["1/2", "1/2"]],
    ],
}

GP_CONFIG = {
    "kernel": {"family": "squared-exponential", "length_scale": 1.0,
               "amplitude": 1.0},
    "mean": {"type": "zero"},
    "noise_var": 1.0,
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestInvert:
    def test_known_model(self, tmp_path, capsys):
        inp = write_json(tmp_path / "model.json", MODEL)
        assert main(["invert", "--input", inp]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel"]["rows"] == [["1/3", "2/3"], ["1/7", "6/7"]]
        assert out["null_points"] == []

    def test_output_file_and_byte_determinism(self, tmp_path):
        inp = write_json(tmp_path / "model.json", MODEL)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["invert", "--input", inp, "--output", str(out1)]) == 0
        assert main(["invert", "--input", inp, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_float_backend_flag(self, tmp_path, capsys):
        inp = write_json(tmp_path / "model.json", MODEL)
        assert main(["invert", "--input", inp, "--backend", "float"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel"]["rows"][0][0] == pytest.approx(1 / 3)

    def test_float_to_rational_is_refused(self, tmp_path, capsys):
        model = {"prior": {"labels": ["t"], "weights": [1.0], "scalar": "float"},
                 "sampling": {"source": ["t"], "target": ["x"], "rows": [[1.0]]}}
        inp = write_json(tmp_path / "model.json", model)
        assert main(["invert", "--input", inp, "--backend", "rational"]) == 2

    def test_malformed_json_exits_2_with_error_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["invert", "--input", str(bad)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["invert", "--input", str(tmp_path / "nope.json")]) == 2

    def test_nan_in_the_model_exits_2_naming_it(self, tmp_path, capsys):
        model = {"prior": {"labels": ["t1", "t2"], "weights": [0.5, 0.5],
                           "scalar": "float"},
                 "sampling": {"source": ["t1", "t2"], "target": ["x0", "x1"],
                              "rows": [[float("nan"), 1.0], [0.25, 0.75]]}}
        inp = write_json(tmp_path / "model.json", model)
        assert "NaN" in (tmp_path / "model.json").read_text()
        assert main(["invert", "--input", inp]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"
        assert "non-finite" in err["error"]["message"]
        assert "nan" in err["error"]["message"]

    @pytest.mark.parametrize("field, constant", [("label", "NaN"),
                                                 ("prior weight", "Infinity")])
    def test_non_finite_json_constants_exit_2(self, tmp_path, capsys, field, constant):
        if field == "label":
            model = {"prior": MODEL["prior"],
                     "sampling": dict(MODEL["sampling"], target=[float("nan"), 1.5])}
        else:
            model = {"prior": {"labels": ["t1", "t2"], "weights": [float("inf"), 0.5],
                               "scalar": "float"},
                     "sampling": MODEL["sampling"]}
        inp = write_json(tmp_path / "model.json", model)
        assert constant in (tmp_path / "model.json").read_text()
        assert main(["invert", "--input", inp]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"]["type"] == "SchemaError"
        assert f"non-finite JSON constant {constant}" in err["error"]["message"]
        assert inp in err["error"]["message"]

    def test_control_character_labels_give_valid_json(self, tmp_path, capsys):
        model = {"prior": MODEL["prior"],
                 "sampling": dict(MODEL["sampling"],
                                  target=["line\nbreak", "tab\tstop"])}
        inp = write_json(tmp_path / "model.json", model)
        assert main(["invert", "--input", inp]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kernel"]["source"] == ["line\nbreak", "tab\tstop"]

    def test_non_stochastic_rows_exit_2(self, tmp_path):
        broken = dict(MODEL)
        broken["sampling"] = {"source": ["t1", "t2"], "target": ["x0", "x1"],
                              "rows": [["1/2", "1/3"], ["1/4", "3/4"]]}
        inp = write_json(tmp_path / "model.json", broken)
        assert main(["invert", "--input", inp]) == 2


class TestPosteriorPredictive:
    def test_posterior_hand_values(self, tmp_path, capsys):
        inp = write_json(tmp_path / "model.json", SUPERVISED)
        data = write_json(tmp_path / "train.json", {"pairs": [["a", 1]]})
        assert main(["posterior", "--input", inp, "--data", data]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["weights"] == ["1/6", "5/6"]
        assert out["null_evidence"] is False

    def test_predictive_hand_values(self, tmp_path, capsys):
        inp = write_json(tmp_path / "model.json", SUPERVISED)
        data = write_json(tmp_path / "train.json", {"pairs": [["a", 1]]})
        test = write_json(tmp_path / "test.json", {"points": ["b"]})
        assert main(["predictive", "--input", inp, "--data", data,
                     "--test", test]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["labels"] == [0, 1]
        assert out["weights"] == ["13/30", "17/30"]

    def test_posterior_output_round_trips_as_a_measure(self, tmp_path):
        inp = write_json(tmp_path / "model.json", SUPERVISED)
        data = write_json(tmp_path / "train.json", {"pairs": [["a", 1], ["b", 0]]})
        out = tmp_path / "post.json"
        assert main(["posterior", "--input", inp, "--data", data,
                     "--output", str(out)]) == 0
        from probmorph.serialize import measure_from_jsonable
        m = measure_from_jsonable(json.loads(out.read_text()))
        assert m.is_probability()

    def test_empty_training_set_is_the_prior(self, tmp_path, capsys):
        inp = write_json(tmp_path / "model.json", SUPERVISED)
        data = write_json(tmp_path / "train.json", {"pairs": []})
        assert main(["posterior", "--input", inp, "--data", data]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["weights"] == ["1/2", "1/2"]



def _one_short_error(captured) -> dict:
    """The refusal contract: nothing on stdout, one JSON object under
    1 KB on stderr, no traceback."""
    assert captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    return json.loads(captured.err)["error"]


class TestIntStrLimit:
    """Exact values past the interpreter's int/str conversion limit are
    refused with exit 2 on both sides, and the limit is left alone."""

    def test_posterior_too_long_to_write_exits_2(self, tmp_path, capsys):
        model = {"prior": {"labels": ["h0", "h1", "h2"],
                           "weights": ["1/3", "1/3", "1/3"], "scalar": "rational"},
                 "inputs": ["a", "b"], "labels": [0, 1, 2],
                 "supervisors": [[["1/7", "2/7", "4/7"], ["3/11", "3/11", "5/11"]],
                                 [["2/13", "5/13", "6/13"], ["1/3", "1/3", "1/3"]],
                                 [["1/2", "1/4", "1/4"], ["2/5", "2/5", "1/5"]]]}
        pairs = {"pairs": [["ab"[i % 2], i % 3] for i in range(3000)]}
        limit = sys.get_int_max_str_digits()
        code = main(["posterior", "--input", write_json(tmp_path / "m.json", model),
                     "--data", write_json(tmp_path / "p.json", pairs)])
        assert code == 2
        err = _one_short_error(capsys.readouterr())
        assert err["type"] == "SchemaError"
        assert f"limit of {limit} digits" in err["message"]
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("form", ["p/q string", "bare int"])
    def test_weight_too_long_to_read_exits_2(self, tmp_path, capsys, form):
        big = "1" + "0" * 4999
        path = tmp_path / "model.json"
        text = json.dumps(MODEL).replace('"1/5"', f'"1/{big}"' if form == "p/q string"
                                         else big)
        path.write_text(text)
        assert main(["invert", "--input", str(path)]) == 2
        err = _one_short_error(capsys.readouterr())
        assert err["type"] == "SchemaError"
        assert "5000 digits" in err["message"]
        assert f"({sys.get_int_max_str_digits()} digits)" in err["message"]

class TestShortRefusals:
    """Inputs the value constructors refuse exit 2 with one short error."""

    @pytest.mark.parametrize("weights, scalar", [
        (["1/0", "1"], None), (["abc", "1"], None), ([True, False], None),
        ([True, False], "rational"), ([True, False], "float"),
        (["1/2", "1/2"], "float"), ([0.25, "3/4"], None), ([None, 1], None),
    ])
    def test_bad_prior_weights_exit_2(self, tmp_path, capsys, weights, scalar):
        prior = {"labels": ["t1", "t2"], "weights": weights}
        if scalar:
            prior["scalar"] = scalar
        inp = write_json(tmp_path / "model.json", dict(MODEL, prior=prior))
        assert main(["invert", "--input", inp]) == 2
        err = _one_short_error(capsys.readouterr())
        assert err["type"] == "SchemaError"
        assert err["message"].startswith("model.prior: ")

    def test_a_float_prior_is_clamped_as_a_sampling_row_is(self, tmp_path, capsys):
        tiny = [1.0000000000001, -1e-13]
        for prior, row in ((tiny, [0.5, 0.5]), ([0.5, 0.5], tiny)):
            model = {"prior": {"labels": ["t1", "t2"], "weights": prior, "scalar": "float"},
                     "sampling": dict(MODEL["sampling"], rows=[row, [0.25, 0.75]])}
            assert main(["invert", "--input", write_json(tmp_path / "m.json", model)]) == 0
            capsys.readouterr()
        model["prior"]["weights"] = [1.0, -1e-9]
        assert main(["invert", "--input", write_json(tmp_path / "m.json", model)]) == 2
        err = _one_short_error(capsys.readouterr())
        assert err["message"] == "model: negative weight -1e-09 in a prior"

    def test_bad_label_among_3000_pairs_names_the_pair(self, tmp_path, capsys):
        pairs = [["ab"[i % 2], i % 2] for i in range(3000)]
        pairs[1234][1] = 5
        code = main(["posterior", "--input", write_json(tmp_path / "m.json", SUPERVISED),
                     "--data", write_json(tmp_path / "p.json", {"pairs": pairs})])
        assert code == 2
        err = _one_short_error(capsys.readouterr())
        assert "pair 1234 has label 5" in err["message"]

    def test_supervisor_entries_of_two_backends_exit_2(self, tmp_path, capsys):
        model = {"prior": {"labels": ["h0", "h1"], "weights": [0.5, 0.5]},
                 "inputs": ["a"], "labels": [0, 1], "supervisors": [[[1, 0]], [[0.5, 0.5]]]}
        code = main(["posterior", "--input", write_json(tmp_path / "m.json", model),
                     "--data", write_json(tmp_path / "p.json", {"pairs": [["a", 1]]})])
        assert code == 2
        assert _one_short_error(capsys.readouterr())["type"] == "BackendMismatchError"

    def test_supervisor_row_off_one_names_its_hypothesis(self, tmp_path, capsys):
        model = dict(SUPERVISED, supervisors=[SUPERVISED["supervisors"][0],
                                              [["1/2", "1/2"], ["1/2", "1/3"]]])
        code = main(["posterior", "--input", write_json(tmp_path / "m.json", model),
                     "--data", write_json(tmp_path / "p.json", {"pairs": [["a", 1]]})])
        assert code == 2
        assert _one_short_error(capsys.readouterr())["message"] == (
            "model: rational supervisor rows must sum to 1, got 5/6 at row (1, 1)")

    @staticmethod
    def _nested(value, depth: int) -> str:
        return "[" * depth + json.dumps(value) + "]" * depth

    # Run in a fresh interpreter: how deep a document json.load reads
    # depends on the depth of the stack it is called from.
    @pytest.mark.parametrize("where, message", [
        ("prior weight", "model.prior: values of 40 dimensions; no value takes more than 3"),
        ("kernel row entry",
         "model.sampling.rows: values of 40 dimensions; no value takes more than 3"),
        ("document", "model file 'model.json' is nested too deep to read"),
        ("label", "model.prior.labels: label nested too deep to read"),
    ], ids=["prior-weight", "kernel-row-entry", "document", "label"])
    def test_deep_nesting_exits_2(self, tmp_path, where, message):
        model = json.loads(json.dumps(MODEL))
        if where == "prior weight":         # "1/2" inside 40 lists
            model["prior"] = {"labels": ["t"], "weights": "@"}
            model["sampling"] = {"source": ["t"], "target": ["x"], "rows": [["1"]]}
            text = json.dumps(model).replace('"@"', self._nested("1/2", 40))
        elif where == "kernel row entry":   # 40 dimensions with the rows
            model["prior"] = {"labels": ["t"], "weights": ["1"]}
            model["sampling"] = {"source": ["t"], "target": ["x"], "rows": [["@"]]}
            text = json.dumps(model).replace('"@"', self._nested("1/2", 38))
        elif where == "document":
            text = '{"prior": ' + "[" * 200_000
        else:
            model["prior"]["labels"][0] = model["sampling"]["source"][0] = "@"
            text = json.dumps(model).replace('"@"', self._nested("t1", 900))
        (tmp_path / "model.json").write_text(text)
        src = str(Path(probmorph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "probmorph.cli", "invert", "--input", "model.json"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == {"type": "SchemaError", "message": message}

    def test_predictive_joint_over_the_limit_exits_2_quickly(self, tmp_path, capsys):
        model = {"prior": {"labels": ["h0", "h1"], "weights": ["1/2", "1/2"]},
                 "inputs": ["a", "b"], "labels": [0, 1, 2],
                 "supervisors": [[["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"]]] * 2}
        start = time.process_time()
        code = main(["predictive", "--input", write_json(tmp_path / "m.json", model),
                     "--data", write_json(tmp_path / "p.json", {"pairs": [["a", 1]]}),
                     "--test", write_json(tmp_path / "t.json", {"points": ["a", "b"] * 7})])
        assert code == 2
        assert time.process_time() - start < 5.0
        err = _one_short_error(capsys.readouterr())
        assert "2 x 3^14 entries" in err["message"]


class TestGpPredict:
    def _files(self, tmp_path):
        cfg = write_json(tmp_path / "gp.json", GP_CONFIG)
        train = tmp_path / "train.csv"
        train.write_text("x,y\n0.0,1.0\n")
        test = tmp_path / "test.csv"
        test.write_text("x\n0.0\n")
        return cfg, str(train), str(test)

    def test_hand_values_and_sidecar(self, tmp_path):
        cfg, train, test = self._files(tmp_path)
        out = tmp_path / "pred.csv"
        assert main(["gp-predict", "--input", cfg, "--data", train,
                     "--test", test, "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,mean,sd"
        x, mean, sd = lines[1].split(",")
        assert float(mean) == 0.5
        assert float(sd) == pytest.approx(0.5 ** 0.5, abs=0)
        cov = json.loads((tmp_path / "pred.cov.json").read_text())
        assert cov["mean"] == [0.5]
        assert cov["cov"] == [[0.5]]

    def test_byte_determinism(self, tmp_path):
        cfg, train, test = self._files(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gp-predict", "--input", cfg, "--data", train, "--test", test,
              "--output", str(a)])
        main(["gp-predict", "--input", cfg, "--data", train, "--test", test,
              "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_singular_training_covariance_exits_3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gp.json",
                         dict(GP_CONFIG, noise_var=0.0))
        train = tmp_path / "train.csv"
        train.write_text("x,y\n0.0,1.0\n0.0,1.0\n")
        test = tmp_path / "test.csv"
        test.write_text("x\n0.5\n")
        assert main(["gp-predict", "--input", cfg, "--data", str(train),
                     "--test", str(test)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SingularMatrixError"
        assert "condition" in err["error"]

    def test_infinite_condition_exits_3_with_null(self, tmp_path, capsys):
        # amplitude^2 underflows to 0, so the Gram matrix is exactly zero
        cfg = write_json(tmp_path / "gp.json", dict(
            GP_CONFIG, noise_var=0.0,
            kernel=dict(GP_CONFIG["kernel"], amplitude=1e-200)))
        train = tmp_path / "train.csv"
        train.write_text("x,y\n0.0,1.0\n1.0,2.0\n")
        test = tmp_path / "test.csv"
        test.write_text("x\n0.5\n")
        assert main(["gp-predict", "--input", cfg, "--data", str(train),
                     "--test", str(test)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"]["type"] == "SingularMatrixError"
        assert payload["error"]["condition"] is None

    def test_explicit_jitter_recovers(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "gp.json", dict(GP_CONFIG, noise_var=0.0))
        train = tmp_path / "train.csv"
        train.write_text("x,y\n0.0,1.0\n0.0,1.0\n")
        test = tmp_path / "test.csv"
        test.write_text("x\n0.5\n")
        assert main(["gp-predict", "--input", cfg, "--data", str(train),
                     "--test", str(test), "--jitter", "1e-8"]) == 0

    @pytest.mark.parametrize("amplitude", [1e3, 1e6, 1e150])
    def test_large_amplitude_is_not_refused(self, tmp_path, amplitude):
        # The rounding error of the predictive covariance grows with
        # amplitude^2; the PSD tolerances scale with it.
        cfg = write_json(tmp_path / "gp.json", dict(
            GP_CONFIG, noise_var=0.1,
            kernel=dict(GP_CONFIG["kernel"], amplitude=amplitude)))
        train = tmp_path / "train.csv"
        train.write_text("x,y\n0.0,0.0\n0.5,1.0\n1.0,0.5\n")
        test = tmp_path / "test.csv"
        test.write_text("x\n" + "\n".join(map(str, np.linspace(-1.0, 2.0, 7))) + "\n")
        out = tmp_path / "pred.csv"
        assert main(["gp-predict", "--input", cfg, "--data", str(train),
                     "--test", str(test), "--output", str(out)]) == 0
        cov = np.array(json.loads((tmp_path / "pred.cov.json").read_text())["cov"])
        assert np.array_equal(cov, cov.T)
        assert cov.max() <= amplitude ** 2

    def _three_points(self, tmp_path, amplitude):
        cfg = write_json(tmp_path / "gp.json", dict(
            GP_CONFIG, noise_var=0.1,
            kernel=dict(GP_CONFIG["kernel"], amplitude=amplitude)))
        train = tmp_path / "train.csv"
        train.write_text("x,y\n0,0.1\n0.5,0.3\n1,0.2\n")
        test = tmp_path / "test.csv"
        test.write_text("x\n0.25\n0.75\n")
        return ["gp-predict", "--input", cfg, "--data", str(train), "--test", str(test)]

    @pytest.mark.parametrize("amplitude", [9.5e153, 1.2e154])
    def test_condition_estimate_does_not_overflow(self, tmp_path, amplitude):
        # C is well-conditioned, but its eigenvalues exceed the float range
        out = tmp_path / "pred.csv"
        assert main(self._three_points(tmp_path, amplitude) + ["--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,mean,sd" and len(lines) == 3
        assert all(math.isfinite(float(v)) for line in lines[1:] for v in line.split(","))

    def test_overflowing_predictive_exits_3_with_one_json_line(self, tmp_path, capsys):
        assert main(self._three_points(tmp_path, 1.3e154)) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert json.loads(err)["error"] == {
            "type": "NumericalError",
            "message": "the posterior predictive overflows the float range"}

    @pytest.mark.parametrize("jitter", ["inf", "nan", "-1", "-0.05"])
    def test_bad_jitter_exits_2_with_one_json_line(self, tmp_path, capsys, jitter):
        assert main(self._three_points(tmp_path, 1.0) + [f"--jitter={jitter}"]) == 2
        assert _one_short_error(capsys.readouterr()) == {
            "type": "SchemaError",
            "message": f"jitter {float(jitter)!r} must be finite and nonnegative"}

    def test_constant_mean_out_of_the_float_range_exits_2(self, tmp_path, capsys):
        argv = self._three_points(tmp_path, 1.0)
        (tmp_path / "gp.json").write_text(json.dumps(dict(
            GP_CONFIG, noise_var=0.1, mean={"type": "constant", "value": 0.5})
        ).replace("0.5", "1e400"))          # JSON reads 1e400 as inf
        assert main(argv) == 2
        assert _one_short_error(capsys.readouterr()) == {
            "type": "SchemaError",
            "message": "gp.mean: constant mean inf is not a finite real number"}

    def test_missing_csv_exits_2_with_the_os_error(self, tmp_path, capsys):
        cfg, _, test = self._files(tmp_path)
        missing = tmp_path / "missing.csv"
        assert main(["gp-predict", "--input", cfg, "--data", str(missing),
                     "--test", test]) == 2
        assert _one_short_error(capsys.readouterr()) == {
            "type": "OSError",
            "message": f"[Errno 2] No such file or directory: {str(missing)!r}"}

    def test_header_spaces_and_a_byte_order_mark_read_as_plain_headers(self, tmp_path):
        cfg, train, test = self._files(tmp_path)
        plain = tmp_path / "plain.csv"
        assert main(["gp-predict", "--input", cfg, "--data", train,
                     "--test", test, "--output", str(plain)]) == 0
        spaced_train, spaced_test = tmp_path / "spaced-train.csv", tmp_path / "spaced-test.csv"
        spaced_train.write_bytes("\ufeffx, y\n0.0, 1.0\n".encode("utf-8"))
        spaced_test.write_text(" x\n0.0\n")
        spaced = tmp_path / "spaced.csv"
        assert main(["gp-predict", "--input", cfg, "--data", str(spaced_train),
                     "--test", str(spaced_test), "--output", str(spaced)]) == 0
        assert spaced.read_bytes() == plain.read_bytes()

    def test_bad_csv_exits_2(self, tmp_path):
        cfg = write_json(tmp_path / "gp.json", GP_CONFIG)
        train = tmp_path / "train.csv"
        train.write_text("u,v\n0.0,1.0\n")
        test = tmp_path / "test.csv"
        test.write_text("x\n0.0\n")
        assert main(["gp-predict", "--input", cfg, "--data", str(train),
                     "--test", str(test)]) == 2

    @pytest.mark.parametrize("train_csv, test_csv, bad", [
        ("x,y\n0.0,nan\n1.0,2.0\n", "x\n0.5\n", "y"),
        ("x,y\n0.0,1.0\n1.0,-inf\n", "x\n0.5\n", "y"),
        ("x,y\ninf,1.0\n1.0,2.0\n", "x\n0.5\n", "input"),
        ("x,y\n0.0,1.0\n1.0,2.0\n", "x\n0.5\nnan\n", "input"),
    ])
    def test_non_finite_csv_value_exits_2_leaving_no_output(
            self, tmp_path, capsys, train_csv, test_csv, bad):
        cfg = write_json(tmp_path / "gp.json", GP_CONFIG)
        train = tmp_path / "train.csv"
        train.write_text(train_csv)
        test = tmp_path / "test.csv"
        test.write_text(test_csv)
        out = tmp_path / "out.csv"
        assert main(["gp-predict", "--input", cfg, "--data", str(train),
                     "--test", str(test), "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"
        assert f"non-finite {bad}" in err["error"]["message"]
        assert "row" in err["error"]["message"]
        assert not out.exists()
        assert not (tmp_path / "out.cov.json").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("param", ["length_scale", "amplitude", "noise_var"])
    def test_non_finite_gp_parameter_exits_2(self, tmp_path, capsys, param, value):
        cfg, train, test = self._files(tmp_path)
        if param == "noise_var":
            config = dict(GP_CONFIG, noise_var=value)
        else:
            config = dict(GP_CONFIG, kernel=dict(GP_CONFIG["kernel"], **{param: value}))
        write_json(tmp_path / "gp.json", config)      # json writes NaN / Infinity
        assert main(["gp-predict", "--input", cfg, "--data", train,
                     "--test", test]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SchemaError"

    @pytest.mark.parametrize("param", ["length_scale", "amplitude", "value", "noise_var"])
    def test_boolean_gp_parameter_exits_2(self, tmp_path, capsys, param):
        cfg, train, test = self._files(tmp_path)
        config = dict(GP_CONFIG, mean={"type": "constant", "value": 0.5})
        if param == "noise_var":
            config["noise_var"] = True
        elif param == "value":
            config["mean"] = {"type": "constant", "value": False}
        else:
            config["kernel"] = dict(GP_CONFIG["kernel"], **{param: True})
        write_json(tmp_path / "gp.json", config)
        assert main(["gp-predict", "--input", cfg, "--data", train,
                     "--test", test]) == 2
        err = _one_short_error(capsys.readouterr())
        assert err["message"].endswith(f".{param}: wrong type bool")


    # Out-of-range parameters and data, run in a fresh interpreter: an
    # in-process run would not show numpy's warnings on stderr.
    @pytest.mark.parametrize("kernel, noise_var, train_csv, test_csv, code, kind", [
        ({"length_scale": 1e-200}, 0.1, "x,y\n0.0,1.0\n1.0,2.0\n", "x\n0.5\n",
         2, "SchemaError"),
        ({"amplitude": 1e200}, 0.1, "x,y\n0.0,1.0\n1.0,2.0\n", "x\n0.5\n",
         2, "SchemaError"),
        ({}, 1.0, "x,y\n0.0,1e308\n0.3,-1e308\n", "x\n0.5\n",
         3, "NumericalError"),
        ({"amplitude": 1e-200}, 0.0, "x,y\n0.0,1.0\n1.0,2.0\n", "x\n0.5\n",
         3, "SingularMatrixError"),
        ({}, 1.0, "x,y\n0.0,1.0\n1.0,2.0\n", "x\n1e200\n-1e308\n", 0, None),
        ({"amplitude": 1.2e154}, 0.1, "x,y\n0,0.1\n", "x\n40\n", 0, None),
    ], ids=["tiny-length-scale", "huge-amplitude", "overflowing-outputs",
            "vanishing-amplitude", "far-test-inputs", "covariance-near-the-float-max"])
    def test_out_of_range_input_prints_no_warning(
            self, tmp_path, kernel, noise_var, train_csv, test_csv, code, kind):
        cfg = write_json(tmp_path / "gp.json", dict(
            GP_CONFIG, noise_var=noise_var, kernel=dict(GP_CONFIG["kernel"], **kernel)))
        train = tmp_path / "train.csv"
        train.write_text(train_csv)
        test = tmp_path / "test.csv"
        test.write_text(test_csv)
        src = str(Path(probmorph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "probmorph.cli", "gp-predict", "--input", cfg,
             "--data", str(train), "--test", str(test)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == code
        if kind is None:
            assert proc.stderr == ""
        else:
            assert proc.stderr.count("\n") == 1
            assert json.loads(proc.stderr)["error"]["type"] == kind

    def test_symmetrizing_a_huge_covariance_does_not_overflow(self, tmp_path):
        # amplitude^2 = 1.44e308: (cov + cov.T) / 2 overflowed to an sd of
        # inf, and --output then exited 2 after writing that CSV
        cfg = write_json(tmp_path / "gp.json", dict(
            GP_CONFIG, noise_var=0.1, kernel=dict(GP_CONFIG["kernel"], amplitude=1.2e154)))
        train = tmp_path / "train.csv"
        train.write_text("x,y\n0,0.1\n")
        test = tmp_path / "test.csv"
        test.write_text("x\n40\n")
        out = tmp_path / "pred.csv"
        assert main(["gp-predict", "--input", cfg, "--data", str(train),
                     "--test", str(test), "--output", str(out)]) == 0
        assert out.read_text() == "x,mean,sd\n40,0,1.2000000000000001e+154\n"


class TestCheckLaws:
    def test_clean_build_reports_zero_failures(self, tmp_path, capsys):
        assert main(["check-laws", "--seed", "1", "--trials", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_failures"] == 0
        assert all(c["num_failures"] == 0 for c in report["checks"])

    def test_report_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["check-laws", "--seed", "3", "--trials", "4", "--output", str(a)])
        main(["check-laws", "--seed", "3", "--trials", "4", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_backend_restriction(self, capsys):
        assert main(["check-laws", "--trials", "3", "--backend", "rational"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in report["checks"]]
        assert "composition[rational]" in names
        assert "composition[float]" not in names

    @pytest.mark.parametrize("flags, message", [
        (["--seed=-1"], "seed must be a non-negative integer, got -1"),
        (["--trials=-1"], "trials must be a non-negative integer, got -1"),
        (["--tolerance=nan"], "tolerance must be a finite number >= 0, got nan"),
        (["--tolerance=inf"], "tolerance must be a finite number >= 0, got inf"),
        (["--tolerance=-1", "--backend", "float"],
         "tolerance must be a finite number >= 0, got -1.0"),
    ], ids=["negative-seed", "negative-trials", "nan-tolerance", "inf-tolerance",
            "negative-tolerance"])
    def test_bad_flags_exit_2_with_one_json_line(self, capsys, flags, message):
        assert main(["check-laws"] + flags) == 2
        assert _one_short_error(capsys.readouterr()) == {
            "type": "SchemaError", "message": message}

    def test_mutated_composition_is_caught(self, monkeypatch, capsys):
        real = probmorph.kernels.compose

        def sabotaged(t1, t2):
            out = real(t1, t2)
            if out.source.size < 2:
                return out
            rows = out.rows[::-1]          # quietly swap two rows
            return probmorph.kernels.FiniteKernel(out.source, out.target, rows)

        monkeypatch.setattr(probmorph.kernels, "compose", sabotaged)
        code = main(["check-laws", "--seed", "0", "--trials", "10"])
        assert code == 4
        report = json.loads(capsys.readouterr().out)
        assert report["total_failures"] > 0
        bad = [c for c in report["checks"] if c["num_failures"]]
        assert any("composition" in c["name"] or "graph" in c["name"]
                   for c in bad)
