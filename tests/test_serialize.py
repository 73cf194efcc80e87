"""JSON/CSV round-trips, canonical encoding, and schema rejection."""

import json
import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import probmorph as pm
from probmorph import SchemaError
from probmorph import serialize as ser


def roundtrip(obj, to_json, from_json):
    return from_json(json.loads(ser.dumps_canonical(to_json(obj))))


class TestCanonicalDumps:
    def test_keys_are_sorted_and_output_is_compact(self):
        assert ser.dumps_canonical({"b": 1, "a": [True, None]}) == \
            '{"a":[true,null],"b":1}'

    def test_floats_round_trip_exactly(self):
        for x in (1 / 3, 0.1, 1e-300, 123456.789, -0.0, 2.0 ** 52 + 1):
            assert float(json.loads(ser.dumps_canonical(x))) == x

    def test_fractions_become_quoted_strings(self):
        assert ser.dumps_canonical([F(1, 3), F(2)]) == '["1/3","2"]'

    def test_identical_input_gives_identical_bytes(self):
        payload = {"z": [0.1, 0.2], "a": {"k": F(5, 7)}}
        assert ser.dumps_canonical(payload) == ser.dumps_canonical(payload)

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(SchemaError):
            ser.dumps_canonical(float("nan"))

    def test_string_escaping(self):
        assert ser.dumps_canonical('a"b\\c') == '"a\\"b\\\\c"'

    def test_control_characters_escape_as_json_dumps_does(self):
        labels = ["line\nbreak", "tab\tstop", "cr\r", "\x00\x1f\x7f",
                  "\b\f", "caf\u00e9 \u2603", 'q"\\']
        for s in labels:
            text = ser.dumps_canonical(s)
            assert text == json.dumps(s, ensure_ascii=False)
            assert json.loads(text) == s
        payload = {"labels": labels, "weights": [0.5] * len(labels)}
        assert json.loads(ser.dumps_canonical(payload)) == payload


    def test_numpy_values_and_fractions_through_the_hook(self):
        payload = {"f": F(1, 3), "i": np.int64(3), "x": np.float64(0.1),
                   "a": np.array([[1.0, 0.5]]), "h": np.float32(0.5)}
        assert ser.dumps_canonical(payload) == \
            '{"a":[[1.0,0.5]],"f":"1/3","h":0.5,"i":3,"x":0.1}'

    def test_integral_floats_keep_their_decimal_point(self):
        assert ser.dumps_canonical([1.0, 0.0, -0.0, 1e16, 0.1]) == \
            "[1.0,0.0,-0.0,1e+16,0.1]"

    def test_unknown_types_are_rejected(self):
        with pytest.raises(SchemaError, match="cannot serialize set"):
            ser.dumps_canonical({"a": {1, 2}})

    def test_fraction_over_the_int_str_limit_is_refused(self):
        limit = sys.get_int_max_str_digits()
        m = pm.prob_measure(pm.FiniteSpace(("a", "b")),
                            [F(1, 10 ** 5000), 1 - F(1, 10 ** 5000)])
        for payload in (F(1, 10 ** 5000), ser.measure_to_jsonable):
            with pytest.raises(SchemaError, match=f"limit of {limit} digits"):
                ser.dumps_canonical(payload if isinstance(payload, F)
                                    else payload(m))
        assert sys.get_int_max_str_digits() == limit

class TestMeasureRoundTrip:
    def test_rational_measure(self):
        m = pm.prob_measure(pm.FiniteSpace(("a", "b")), [F(1, 3), F(2, 3)])
        back = roundtrip(m, ser.measure_to_jsonable, ser.measure_from_jsonable)
        assert pm.measures_equal(m, back)
        assert back.scalar == "rational"

    def test_float_measure(self):
        m = pm.prob_measure(pm.FiniteSpace((0.5, 1.5)), [1 / 3, 2 / 3])
        back = roundtrip(m, ser.measure_to_jsonable, ser.measure_from_jsonable)
        assert back.scalar == "float"
        assert np.array_equal(np.asarray(back.weights), np.asarray(m.weights))

    def test_tuple_labels_survive(self):
        s = pm.product_space([pm.FiniteSpace(("a", "b")), pm.FiniteSpace((0, 1))])
        m = pm.uniform_measure(s)
        back = roundtrip(m, ser.measure_to_jsonable, ser.measure_from_jsonable)
        assert back.space.factors is not None
        assert back.space == s

    def test_scalar_field_is_emitted(self):
        m = pm.prob_measure(pm.FiniteSpace(("a",)), [F(1)])
        d = ser.measure_to_jsonable(m)
        assert d["scalar"] == "rational"
        assert d["weights"] == ["1"]

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            ser.measure_from_jsonable({"labels": ["a", "b"], "weights": ["1"],
                                       "scalar": "rational"})

    def test_mixed_weight_styles_rejected(self):
        with pytest.raises(SchemaError):
            ser.measure_from_jsonable({"labels": ["a", "b"],
                                       "weights": ["1/2", 0.5]})


def emitted(labels, weights) -> str:
    return ser.dumps_canonical(ser.measure_to_jsonable(
        pm.prob_measure(pm.FiniteSpace(labels), weights)))


class TestLabelText:
    """Labels are written by json.dumps as they stand: tuples as arrays,
    numpy scalars as numbers, other JSON-less types refused."""

    def test_numpy_scalar_labels(self):
        assert emitted((np.int64(3), np.float64(0.5)), [F(1, 4), F(3, 4)]) == \
            '{"labels":[3,0.5],"scalar":"rational","weights":["1/4","3/4"]}'

    def test_nested_tuple_labels(self):
        inner = pm.product_space([pm.FiniteSpace(("a", "b")), pm.FiniteSpace((0, 1))])
        s = pm.product_space([inner, pm.FiniteSpace((0.5,))])
        assert ser.dumps_canonical(ser.measure_to_jsonable(pm.uniform_measure(s))) == (
            '{"labels":[[["a",0],0.5],[["a",1],0.5],[["b",0],0.5],[["b",1],0.5]],'
            '"scalar":"rational","weights":["1/4","1/4","1/4","1/4"]}')

    def test_control_character_labels(self):
        assert emitted(("line\nbreak", "tab\tstop", "nul\x00"), [0.25, 0.25, 0.5]) == (
            '{"labels":["line\\nbreak","tab\\tstop","nul\\u0000"],'
            '"scalar":"float","weights":[0.25,0.25,0.5]}')

    def test_frozenset_label_is_refused(self):
        with pytest.raises(SchemaError, match="frozenset"):
            emitted((frozenset({1}), "a"), [F(1, 2), F(1, 2)])

    def test_none_label_is_written_as_null_and_refused_on_read(self):
        text = emitted((None, "a"), [F(1, 2), F(1, 2)])
        assert text == '{"labels":[null,"a"],"scalar":"rational","weights":["1/2","1/2"]}'
        with pytest.raises(SchemaError, match="bad label value"):
            ser.measure_from_jsonable(json.loads(text))

    def test_fraction_label_is_written_as_text_and_read_as_a_string(self):
        text = emitted((F(1, 3), "a"), [F(1, 2), F(1, 2)])
        assert text == '{"labels":["1/3","a"],"scalar":"rational","weights":["1/2","1/2"]}'
        assert ser.measure_from_jsonable(json.loads(text)).space.labels == ("1/3", "a")


# Weight lists and backends for the parity test: the JSON reader and the
# library constructors must accept and refuse the same lists.
WEIGHT_CASES = [
    (["1/2", "1/2"], None), ([1, 0], None), ([0.5, 0.5], None), ([1, 0.0], None),
    (["1/2", 0.5], None), (["1/0", "1"], None), (["abc", "1"], None),
    ([True, False], None), ([True, False], "rational"), ([True, False], "float"),
    ([0.5, True], "float"), (["0.5", "0.5"], "float"), (["1/2", "1/2"], "float"),
    ([0.5, 0.5], "rational"), ([1, 0], "rational"), ([1, 0], "float"),
    ([None, 1], None), ([[1], [0]], None), ([{}, 1], None), ([10 ** 400, 0.0], None),
    (["1/2", "1/2"], "decimal"), ([0.5, 0.5], ["float"]),
]


def _both_routes(build, read, doc):
    """(library value or refusal text, reader value or refusal text)."""
    out = []
    for make in (build, lambda: read(json.loads(json.dumps(doc)))):
        try:
            out.append(make())
        except SchemaError as e:
            out.append(str(e))
    return out


@pytest.mark.parametrize("weights, scalar", WEIGHT_CASES)
def test_json_and_library_routes_agree_on_weights(weights, scalar):
    """The reader and the library accept and refuse the same weights, with
    the same message after the reader's place; kernel rows too (no scalar
    field)."""
    space = pm.FiniteSpace(("a", "b"))
    d = {"labels": ["a", "b"], "weights": weights}
    if scalar is not None:
        d["scalar"] = scalar
    lib, back = _both_routes(lambda: pm.signed_measure(space, weights, scalar),
                             ser.measure_from_jsonable, d)
    if isinstance(lib, str) or isinstance(back, str):
        assert back == f"measure: {lib}"
    else:
        assert back.scalar == lib.scalar
        assert pm.measures_equal(back, lib, tol=0.0)
    if scalar is None:
        source = pm.FiniteSpace(("x",))
        lib, back = _both_routes(lambda: pm.finite_kernel(source, space, [weights]),
                                 ser.kernel_from_jsonable,
                                 {"source": ["x"], "target": ["a", "b"], "rows": [weights]})
        if isinstance(lib, str) or isinstance(back, str):
            assert back == f"kernel.rows: {lib}"
        else:
            assert pm.kernels_equal(back, lib, tol=0.0)


class TestRefusalsCarryTheirPlace:
    def test_kernel_rows(self):
        with pytest.raises(SchemaError, match=r"^kernel\.rows: bad rational '1/0'"):
            ser.kernel_from_jsonable({"source": ["x"], "target": ["u", "v"],
                                      "rows": [["1/0", "1"]]})
        with pytest.raises(SchemaError, match=r"^kernel\.rows: expected rows of shape "
                                              r"\(1, 2\), got \(1, 1\)$"):
            ser.kernel_from_jsonable({"source": ["x"], "target": ["u", "v"],
                                      "rows": [["1"]]})

    def test_supervisor_rows(self):
        d = {"prior": {"labels": ["t"], "weights": ["1"]}, "inputs": ["a"],
             "labels": [0, 1], "supervisors": [[[True, False]]]}
        with pytest.raises(SchemaError,
                           match=r"^model\.supervisors\[0\]\.rows: boolean True"):
            ser.supervised_model_from_jsonable(d)

    def test_supervisor_probabilities_name_the_hypothesis(self):
        d = {"prior": {"labels": ["t1", "t2"], "weights": ["1/2", "1/2"]},
             "inputs": ["a", "b"], "labels": [0, 1],
             "supervisors": [[["1", "0"], ["1", "0"]], [["1", "0"], ["1/2", "1/3"]]]}
        with pytest.raises(SchemaError, match=r"^model: rational supervisor rows must sum "
                                              r"to 1, got 5/6 at row \(1, 1\)$"):
            ser.supervised_model_from_jsonable(d)

    def test_each_supervisor_entry_keeps_its_backend(self):
        # an entry of ints alone is rational, so it cannot join float entries
        d = {"prior": {"labels": ["t1", "t2"], "weights": [0.5, 0.5]},
             "inputs": ["a"], "labels": [0, 1], "supervisors": [[[1, 0]], [[0.5, 0.5]]]}
        with pytest.raises(pm.BackendMismatchError,
                           match=r"^mixed scalar backends \['float', 'rational'\]"):
            ser.supervised_model_from_jsonable(d)

    def test_nested_supervisor_entry_is_refused_in_its_place(self):
        d = {"prior": {"labels": ["t1", "t2"], "weights": [0.5, 0.5]},
             "inputs": ["a"], "labels": [0, 1],
             "supervisors": [[[0.5, 0.5]], [[[0.5, 0.5], [0.5, 0.5]]]]}
        with pytest.raises(SchemaError, match=r"^model\.supervisors\[1\]\.rows: expected rows "
                                              r"of shape \(1, 2\), got \(1, 2, 2\)$"):
            ser.supervised_model_from_jsonable(d)

    @pytest.mark.parametrize("read, doc, message", [
        (ser.measure_from_jsonable, {"labels": ["a", "b"], "weights": ["1"]},
         "measure: expected 2 weights, got shape (1,)"),
        (ser.measure_from_jsonable, {"labels": [], "weights": []},
         "measure.labels: a finite space needs at least one label"),
        (ser.measure_from_jsonable, {"labels": [None], "weights": ["1"]},
         "measure.labels: bad label value None"),
        (ser.kernel_from_jsonable, {"source": ["x"], "target": ["u"], "rows": [["1"], ["1"]]},
         "kernel.rows: expected rows of shape (1, 1), got (2, 1)"),
        (ser.kernel_from_jsonable, {"source": ["x", "y"], "target": ["u", "v"],
                                    "rows": [["1", "0"], ["1"]]},
         "kernel.rows: ragged or nested value ['1', '0'] is not a number"),
        (ser.kernel_from_jsonable, {"source": ["x"], "target": ["u"],
                                    "rows": [[[["1"]]]]},
         "kernel.rows: values of 4 dimensions; no value takes more than 3"),
        (ser.supervised_model_from_jsonable,
         {"prior": {"labels": ["t1", "t2"], "weights": ["1/2", "1/2"]}, "inputs": ["a"],
          "labels": [0, 1], "supervisors": [[["1", "0"]]]},
         "model: expected rows of shape (2, 1, 2), got (1, 1, 2)"),
        (ser.supervised_model_from_jsonable,
         {"prior": {"labels": ["t"], "weights": ["1"]}, "inputs": ["a"],
          "labels": [0, 1], "supervisors": []},
         "model: expected rows of shape (1, 1, 2), got (0,)"),
        (ser.supervised_model_from_jsonable,
         {"prior": {"labels": ["t"], "weights": ["1"]}, "inputs": ["a"],
          "labels": [0, 1], "supervisors": [[["1"]]]},
         "model.supervisors[0].rows: expected rows of shape (1, 2), got (1, 1)"),
        (ser.training_from_jsonable, {"pairs": [["a", 0], ["b", True]]},
         "training.pairs[1]: bad label value True"),
        (ser.test_inputs_from_jsonable, {"points": ["a", {}]},
         "test: bad label value {}"),
    ], ids=["weight-count", "no-labels", "null-label", "row-count", "ragged-rows",
            "four-dimensions", "hypothesis-count", "no-supervisors", "supervisor-shape",
            "bool-training-label", "dict-test-point"])
    def test_constructor_refusals_keep_the_reader_place(self, read, doc, message):
        with pytest.raises(SchemaError) as info:
            read(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("read, key", [
        (lambda d: ser.measure_from_jsonable({"labels": [d, "b"], "weights": ["1", "0"]}),
         "measure.labels"),
        (lambda d: ser.training_from_jsonable({"pairs": [["a", d]]}), "training.pairs[0]"),
        (lambda d: ser.test_inputs_from_jsonable({"points": [d]}), "test"),
    ], ids=["space", "training", "test"])
    def test_label_too_deep_to_read_is_refused_in_its_place(self, read, key):
        deep = "a"
        for _ in range(5000):
            deep = [deep]
        with pytest.raises(SchemaError) as info:
            read(deep)
        assert str(info.value) == f"{key}: label nested too deep to read"

    def test_kernel_read_coerces_its_rows_once(self, monkeypatch):
        calls = []
        real = pm.measures.as_scalar_array

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pm.measures, "as_scalar_array", counted)
        monkeypatch.setattr(ser, "as_scalar_array", counted)
        rows = [["1/2", "1/2"], ["1", "0"]]
        t = ser.kernel_from_jsonable({"source": ["x", "y"], "target": ["u", "v"],
                                      "rows": rows})
        assert len(calls) == 1 and calls[0][0] is rows
        assert t.rows[0, 0] == F(1, 2)

    def test_gaussian(self):
        with pytest.raises(SchemaError, match="^gaussian: mean is not a numeric array: strings"):
            ser.gaussian_from_jsonable({"mean": ["a"], "cov": [[1.0]]})
        with pytest.raises(SchemaError, match="^map: A is not a numeric array: ragged"):
            ser.affine_map_from_jsonable({"A": [[1.0], [1.0, 2.0]], "b": [0.0],
                                          "noise": [[1.0]]})

    def test_supervisors_reuse_the_parsed_spaces(self, monkeypatch):
        calls = []
        real = ser.space_from_jsonable
        monkeypatch.setattr(ser, "space_from_jsonable",
                            lambda v, where="space": calls.append(where) or real(v, where))
        rows = [["1/2", "1/2"], ["1", "0"]]
        d = {"prior": {"labels": ["t1", "t2", "t3"], "weights": ["1/3"] * 3},
             "inputs": ["a", "b"], "labels": [0, 1], "supervisors": [rows] * 3}
        model = ser.supervised_model_from_jsonable(d)
        assert len(calls) == 3
        assert model.rows.shape == (3, model.inputs.size, model.labels.size)


class TestKernelRoundTrip:
    def test_rational_kernel(self):
        t = pm.finite_kernel(pm.FiniteSpace(("x",)), pm.FiniteSpace(("u", "v")),
                             [[F(1, 4), F(3, 4)]])
        back = roundtrip(t, ser.kernel_to_jsonable, ser.kernel_from_jsonable)
        assert pm.kernels_equal(t, back)

    def test_float_kernel(self):
        t = pm.finite_kernel(pm.FiniteSpace(("x", "y")), pm.FiniteSpace(("u", "v")),
                             [[0.25, 0.75], [1 / 3, 2 / 3]])
        back = roundtrip(t, ser.kernel_to_jsonable, ser.kernel_from_jsonable)
        assert np.array_equal(np.asarray(back.rows), np.asarray(t.rows))

    def test_integer_only_rows_default_to_rational(self):
        back = ser.kernel_from_jsonable({"source": ["x"], "target": ["u", "v"],
                                         "rows": [[1, 0]]})
        assert back.scalar == "rational"

    def test_non_stochastic_rows_rejected(self):
        with pytest.raises(SchemaError):
            ser.kernel_from_jsonable({"source": ["x"], "target": ["u", "v"],
                                      "rows": [["1/2", "1/3"]]})

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            ser.kernel_from_jsonable({"source": ["x"], "rows": [[1]]})


class TestModelRoundTrips:
    def test_bayes_model_and_inversion_result(self):
        prior = pm.prob_measure(pm.FiniteSpace(("t1", "t2")), [F(1, 5), F(4, 5)])
        samp = pm.finite_kernel(prior.space, pm.FiniteSpace(("x0", "x1")),
                                [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
        model = pm.BayesModel(prior=prior, sampling=samp)
        back = roundtrip(model, ser.bayes_model_to_jsonable,
                         ser.bayes_model_from_jsonable)
        assert pm.measures_equal(back.prior, prior)
        assert pm.kernels_equal(back.sampling, samp)
        inv = pm.bayes_invert(model)
        d = json.loads(ser.dumps_canonical(ser.inversion_to_jsonable(inv)))
        assert d["null_points"] == []
        assert d["kernel"]["rows"][0] == ["1/3", "2/3"]

    def test_supervised_model(self):
        h = pm.finite_kernel(pm.FiniteSpace(("a", "b")), pm.FiniteSpace((0, 1)),
                             [[F(9, 10), F(1, 10)], [F(1, 10), F(9, 10)]])
        model = pm.SupervisedModel(
            pm.prob_measure(pm.FiniteSpace(("t1", "t2")), [F(1, 2), F(1, 2)]),
            h.source, h.target, np.stack([h.rows, h.rows]))
        back = roundtrip(model, ser.supervised_model_to_jsonable,
                         ser.supervised_model_from_jsonable)
        assert back.inputs == model.inputs
        assert pm.kernels_equal(pm.FiniteKernel(back.inputs, back.labels, back.rows[1]), h)

    def test_training_and_test_inputs(self):
        s = pm.TrainingSet((("a", 1), ("b", 0)))
        back = roundtrip(s, ser.training_to_jsonable, ser.training_from_jsonable)
        assert back.pairs == s.pairs
        t = pm.TestInputs(("a", "b"))
        back_t = roundtrip(t, ser.test_inputs_to_jsonable,
                           ser.test_inputs_from_jsonable)
        assert back_t.points == t.points

    def test_empty_test_inputs_rejected(self):
        with pytest.raises(SchemaError):
            ser.test_inputs_from_jsonable({"points": []})


    def test_float_identity_kernel_reads_back_as_float(self):
        X = pm.FiniteSpace(("x0", "x1"))
        k = pm.identity_kernel(X, "float")
        back = roundtrip(k, ser.kernel_to_jsonable, ser.kernel_from_jsonable)
        assert back.scalar == "float"
        assert pm.kernels_equal(back, k, tol=0.0)

    def test_float_model_with_a_dirac_sampling_kernel_round_trips(self):
        X = pm.FiniteSpace(("x0", "x1"))
        model = pm.BayesModel(prior=pm.prob_measure(X, [0.25, 0.75]),
                              sampling=pm.identity_kernel(X, "float"))
        back = roundtrip(model, ser.bayes_model_to_jsonable,
                         ser.bayes_model_from_jsonable)
        assert back.scalar == "float"
        assert back.sampling.scalar == "float"
        assert pm.kernels_equal(back.sampling, model.sampling, tol=0.0)

class TestGaussianRoundTrips:
    def test_gaussian_measure(self):
        g = pm.GaussianMeasure([0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]])
        back = roundtrip(g, ser.gaussian_to_jsonable, ser.gaussian_from_jsonable)
        assert pm.gaussians_equal(g, back, tol=0.0)

    def test_affine_map(self):
        t = pm.AffineGaussianMap([[1.5, 0.0]], [0.25], [[0.7]])
        back = roundtrip(t, ser.affine_map_to_jsonable, ser.affine_map_from_jsonable)
        assert np.array_equal(back.A, t.A)
        assert np.array_equal(back.noise, t.noise)

    def test_gp_config(self):
        gp = ser.gp_model_from_jsonable({
            "kernel": {"family": "squared-exponential",
                       "length_scale": 2.0, "amplitude": 1.5},
            "mean": {"type": "constant", "value": 1.0},
            "noise_var": 0.25})
        assert gp.noise_var == 0.25
        assert np.array_equal(gp.mean_fn(np.array([[123.0], [-4.0]])), [1.0, 1.0])
        origin = np.zeros((1, 1))
        assert abs(gp.cov_fn(origin, origin)[0, 0] - 1.5 ** 2) < 1e-15

    @pytest.mark.parametrize("field", ["length_scale", "amplitude", "value", "noise_var"])
    @pytest.mark.parametrize("bad", [True, "1.0", 10 ** 400])
    def test_numeric_fields_refuse_bools_strings_and_overflow(self, field, bad):
        d = {"kernel": {"family": "squared-exponential", "length_scale": 2.0,
                        "amplitude": 1.5},
             "mean": {"type": "constant", "value": 1.0}, "noise_var": 0.25}
        {"length_scale": d["kernel"], "amplitude": d["kernel"],
         "value": d["mean"], "noise_var": d}[field][field] = bad
        with pytest.raises(SchemaError, match=field):
            ser.gp_model_from_jsonable(d)

    def test_range_checks_keep_the_place(self):
        d = {"kernel": {"family": "squared-exponential", "length_scale": 2.0,
                        "amplitude": 0.0}, "noise_var": -1.0}
        with pytest.raises(SchemaError, match="^gp: length_scale and amplitude"):
            ser.gp_model_from_jsonable(d)
        d["kernel"]["amplitude"] = 1.0
        with pytest.raises(SchemaError, match="^gp: noise variance"):
            ser.gp_model_from_jsonable(d)

    def test_unknown_mean_type_rejected(self):
        with pytest.raises(SchemaError, match=r"^gp\.mean\.type: unsupported type 'linear'$"):
            ser.gp_model_from_jsonable({
                "kernel": {"family": "squared-exponential", "length_scale": 1,
                           "amplitude": 1},
                "mean": {"type": "linear"}, "noise_var": 0.1})

    def test_unknown_kernel_family_rejected(self):
        with pytest.raises(SchemaError):
            ser.gp_model_from_jsonable({
                "kernel": {"family": "matern", "length_scale": 1, "amplitude": 1},
                "noise_var": 0.1})


class TestCsv:
    def test_training_round_trip(self, tmp_path):
        p = tmp_path / "train.csv"
        p.write_text("x,y\n0.0,1.0\n0.5,2.0\n")
        s = ser.read_training_csv(p)
        assert s.pairs == ((0.0, 1.0), (0.5, 2.0))

    def test_multi_column_inputs(self, tmp_path):
        p = tmp_path / "train.csv"
        p.write_text("x1,x2,y\n0.0,1.0,5.0\n")
        s = ser.read_training_csv(p)
        assert s.pairs == (((0.0, 1.0), 5.0),)

    def test_missing_y_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x\n0.0\n")
        with pytest.raises(SchemaError):
            ser.read_training_csv(p)

    def test_test_csv_without_rows_rejected(self, tmp_path):
        p = tmp_path / "test.csv"
        p.write_text("x\n")
        with pytest.raises(SchemaError, match="no test points$"):
            ser.read_test_csv(p)

    def test_predictions_formatting(self):
        t = pm.TestInputs((0.0,))
        pred = pm.GaussianMeasure([0.5], [[0.5]])
        text = ser.format_predictions_csv(t, pred)
        lines = text.strip().split("\n")
        assert lines[0] == "x,mean,sd"
        x, mean, sd = lines[1].split(",")
        assert (x, mean) == ("0", "0.5")
        assert float(sd) == math.sqrt(0.5)
