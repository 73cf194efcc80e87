"""Spaces, measures, observables: construction rules, norms, products,
convolution and densities."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import probmorph as pm
from probmorph import (
    BackendMismatchError,
    BoundedFunction,
    FiniteMeasure,
    FiniteSpace,
    NotAbsolutelyContinuousError,
    SchemaError,
    UnsupportedStructureError,
    bounded_function,
    convolve,
    dirac_measure,
    expectation,
    integrate,
    measure,
    measures_equal,
    prob_measure,
    product_measure,
    product_space,
    radon_nikodym,
    signed_measure,
    tv_norm,
    uniform_measure,
)
from probmorph.measures import zeros_like_backend


class TestFiniteSpace:
    def test_labels_must_be_distinct(self):
        with pytest.raises(SchemaError):
            FiniteSpace(("a", "a"))

    def test_labels_must_be_nonempty(self):
        with pytest.raises(SchemaError):
            FiniteSpace(())

    def test_index_lookup(self):
        s = FiniteSpace(("a", "b", "c"))
        assert s.index("b") == 1
        assert "c" in s and "z" not in s
        with pytest.raises(SchemaError):
            s.index("z")

    def test_an_unhashable_value_is_no_label(self):
        assert [1, 2] not in FiniteSpace(("a", (1, 2)))

    def test_product_is_row_major(self):
        x = FiniteSpace(("a", "b"))
        y = FiniteSpace((0, 1, 2))
        p = product_space([x, y])
        assert p.labels == (("a", 0), ("a", 1), ("a", 2),
                            ("b", 0), ("b", 1), ("b", 2))

    def test_product_of_one_is_unchanged(self):
        x = FiniteSpace(("a", "b"))
        assert product_space([x]) is x

    def test_factor_recovery(self):
        x = FiniteSpace(("a", "b"))
        y = FiniteSpace((0, 1, 2))
        p = product_space([x, y])
        assert p.factors == (x, y)

    def test_plain_space_has_no_factors(self):
        assert FiniteSpace(("a", "b")).factors is None

    def test_scrambled_pairs_are_not_a_product(self):
        # three of the four pairs: not a full cross product
        s = FiniteSpace((("a", 0), ("a", 1), ("b", 0)))
        assert s.factors is None

    def test_factors_survive_reconstruction_from_labels(self):
        p = product_space([FiniteSpace(("a", "b")), FiniteSpace((0, 1))])
        rebuilt = FiniteSpace(tuple(p.labels))
        assert rebuilt.factors == p.factors


class TestMeasureConstruction:
    def test_rational_probability_must_sum_to_one_exactly(self):
        s = FiniteSpace(("a", "b"))
        prob_measure(s, [F(1, 3), F(2, 3)])
        with pytest.raises(SchemaError):
            prob_measure(s, [F(1, 3), F(1, 3)])

    def test_float_probability_tolerates_1e_10_mass_error(self):
        s = FiniteSpace(("a", "b"))
        m = prob_measure(s, [0.5, 0.5 + 1e-10])
        assert m.scalar == "float"
        with pytest.raises(SchemaError):
            prob_measure(s, [0.5, 0.51])

    def test_tiny_float_negatives_are_clamped(self):
        s = FiniteSpace(("a", "b"))
        m = prob_measure(s, [1.0, -1e-13])
        assert float(m.weight("b")) == 0.0
        with pytest.raises(SchemaError):
            measure(s, [1.0, -1e-9])

    def test_non_finite_float_weights_are_rejected(self):
        s = FiniteSpace(("a", "b"))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SchemaError, match="non-finite total weight"):
                measure(s, [bad, 1.0])
            with pytest.raises(SchemaError, match="non-finite total weight"):
                prob_measure(s, [1.0, bad])

    def test_rational_negatives_are_rejected_outright(self):
        s = FiniteSpace(("a", "b"))
        with pytest.raises(SchemaError):
            measure(s, [F(3, 2), F(-1, 2)])

    def test_refusals_name_the_value_and_no_row(self):
        s = FiniteSpace(("a", "b"))
        with pytest.raises(SchemaError, match=r"^negative weight -1/2 in a measure$"):
            measure(s, [F(3, 2), F(-1, 2)])
        with pytest.raises(SchemaError, match=r"^negative weight -0\.5 in a measure$"):
            measure(s, [1.5, -0.5])
        with pytest.raises(SchemaError, match=r"^rational measure weights must sum to 1, got 2/3$"):
            prob_measure(s, [F(1, 3), F(1, 3)])
        with pytest.raises(SchemaError, match=r"^float measure weights must sum to 1, off by "
                                              r"0\.01 \(tolerance 1e-09\)$"):
            prob_measure(s, [0.5, 0.51])

    def test_backend_inferred_from_entries(self):
        s = FiniteSpace(("a", "b"))
        assert prob_measure(s, [F(1, 2), F(1, 2)]).scalar == "rational"
        assert prob_measure(s, [0.5, 0.5]).scalar == "float"
        assert dirac_measure(s, "a").scalar == "rational"

    def test_floats_never_coerce_to_rationals_silently(self):
        s = FiniteSpace(("a", "b"))
        with pytest.raises(SchemaError):
            signed_measure(s, [0.5, 0.5], scalar="rational")

    def test_weights_are_frozen(self):
        m = prob_measure(FiniteSpace(("a", "b")), [0.5, 0.5])
        with pytest.raises(ValueError):
            m.weights[0] = 1.0

    def test_direct_construction_checks_the_shape(self):
        s = FiniteSpace(("a", "b"))
        with pytest.raises(SchemaError, match="expected 2 weights, got shape"):
            FiniteMeasure(s, np.array([0.5, 0.25, 0.25]))
        with pytest.raises(SchemaError, match="expected 2 values, got shape"):
            BoundedFunction(s, np.array([[1.0, 2.0]]))
        with pytest.raises(SchemaError, match="got shape None"):
            FiniteMeasure(s, [0.5, 0.5])

    def test_caller_array_is_copied_not_frozen(self):
        w = np.array([0.5, 0.5])
        m = prob_measure(FiniteSpace(("a", "b")), w)
        assert w.flags.writeable
        w[0] = 0.9
        assert list(m.weights) == [0.5, 0.5]

    def test_frozen_array_is_taken_without_a_copy(self):
        m = prob_measure(FiniteSpace(("a", "b")), [0.5, 0.5])
        again = prob_measure(m.space, m.weights)
        assert again.weights is m.weights

    def test_as_float_conversion(self):
        m = prob_measure(FiniteSpace(("a", "b")), [F(1, 4), F(3, 4)])
        mf = m.as_float()
        assert mf.scalar == "float"
        assert np.allclose(mf.weights, [0.25, 0.75])

    def test_mixed_backends_refuse_to_interact(self):
        s = FiniteSpace(("a", "b"))
        m1 = prob_measure(s, [F(1, 2), F(1, 2)])
        m2 = prob_measure(s, [0.5, 0.5])
        with pytest.raises(BackendMismatchError):
            measures_equal(m1, m2)


class TestWeightPolicy:
    """as_scalar_array is the one place where outside values become
    weights; every refusal is a SchemaError."""

    S = FiniteSpace(("a", "b"))

    @pytest.mark.parametrize("weights, scalar", [
        (["1/0", "1"], None), (["abc", "1"], None), (["1/0", "1"], "rational"),
        ([True, False], None), ([True, False], "rational"), ([True, False], "float"),
        ([0.5, True], None), ([0.5, True], "float"), ([F(1, 2), True], None),
        (np.array([True, False]), None),
        (["0.5", "0.5"], "float"), ([F(1, 4), F(3, 4)], "float"),
        ([0.25, F(3, 4)], None), ([0.25, F(3, 4)], "float"),
        ([0.25, F(3, 4)], "rational"), ([0.25, "3/4"], None),
        ([None, 1], None), ([None, 1.0], "float"), ([{}, 1], "rational"),
        ([10 ** 400, 0], "float"), ([10 ** 400, 0.0], None),
    ])
    def test_refusals_are_schema_errors(self, weights, scalar):
        with pytest.raises(SchemaError):
            prob_measure(self.S, weights, scalar)

    def test_ints_fit_either_backend(self):
        assert prob_measure(self.S, [1, 0]).scalar == "rational"
        assert prob_measure(self.S, [1, np.int64(0)], "float").scalar == "float"
        assert prob_measure(self.S, [1, 0.0]).scalar == "float"
        three = FiniteSpace(("a", "b", "c"))
        assert prob_measure(three, ["1/3", 0, F(2, 3)]).scalar == "rational"

    def test_unknown_backend_is_refused(self):
        with pytest.raises(SchemaError, match="unknown scalar backend 'decimal'"):
            prob_measure(self.S, [1, 0], "decimal")

    def test_messages_keep_the_parser_reason(self):
        with pytest.raises(SchemaError, match=r"bad rational '1/0': Fraction\(1, 0\)"):
            prob_measure(self.S, ["1/0", "1"])
        with pytest.raises(SchemaError, match="Invalid literal for Fraction"):
            prob_measure(self.S, ["abc", "1"])
        with pytest.raises(SchemaError, match="boolean True is not a number"):
            prob_measure(self.S, [True, False])
        with pytest.raises(SchemaError, match="float values mixed"):
            prob_measure(self.S, [0.25, F(3, 4)])

    @pytest.mark.parametrize("literal", ["x" * 5000, "1/" + "1" * 5000])
    def test_long_literals_give_short_messages(self, literal):
        with pytest.raises(SchemaError) as info:
            prob_measure(self.S, [literal, "1"])
        assert len(str(info.value)) < 400
        assert "5002 characters" in str(info.value) or "5000 digits" in str(info.value)

    @pytest.mark.parametrize("scalar", [None, "rational", "float"])
    @pytest.mark.parametrize("depth", [4, 33, 40, 64, 100])
    def test_values_nested_deeper_than_three_are_refused(self, depth, scalar):
        value = "1" if scalar != "float" else 1.0
        for _ in range(depth):
            value = [value]
        with pytest.raises(SchemaError, match=r"^values of \d+ dimensions; "
                                              "no value takes more than 3$"):
            signed_measure(FiniteSpace(("a",)), value, scalar)

    def test_a_value_too_deep_to_print_is_named_by_its_type(self):
        value = "1/2"
        for _ in range(5000):
            value = [value]
        with pytest.raises(SchemaError, match="^ragged or nested value <list nested "
                                              "too deep to print> is not a number$"):
            signed_measure(self.S, [value, "1/2"])

    def test_ragged_rows_are_refused(self):
        from probmorph import finite_kernel
        for scalar in (None, "rational", "float"):
            with pytest.raises(SchemaError, match="ragged"):
                finite_kernel(self.S, self.S, [[1, 0], [1]], scalar)
        with pytest.raises(SchemaError, match="ragged"):
            finite_kernel(self.S, self.S, [[1.0, 0.0], [1.0]])


class TestTvNorm:
    def test_hand_value(self):
        s = FiniteSpace(("a", "b", "c"))
        m = signed_measure(s, [F(1, 2), F(-1, 4), F(1, 4)])
        assert tv_norm(m) == F(1)

    def test_probability_measures_have_norm_one(self):
        m = prob_measure(FiniteSpace(("a", "b")), [F(2, 7), F(5, 7)])
        assert tv_norm(m) == F(1)

    @given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=6))
    def test_norm_axioms(self, ws):
        s = FiniteSpace(tuple(range(len(ws))))
        m = signed_measure(s, [F(w) for w in ws])
        assert tv_norm(m) >= 0
        assert (tv_norm(m) == 0) == all(w == 0 for w in ws)

    @given(st.lists(st.tuples(st.fractions(min_value=-3, max_value=3),
                              st.fractions(min_value=-3, max_value=3)),
                    min_size=1, max_size=5))
    def test_triangle_inequality(self, pairs):
        s = FiniteSpace(tuple(range(len(pairs))))
        m1 = signed_measure(s, [F(a) for a, _ in pairs])
        m2 = signed_measure(s, [F(b) for _, b in pairs])
        both = signed_measure(s, [F(a) + F(b) for a, b in pairs])
        assert tv_norm(both) <= tv_norm(m1) + tv_norm(m2)


class TestProductMeasure:
    def test_hand_value(self):
        m1 = prob_measure(FiniteSpace(("a", "b")), [F(1, 2), F(1, 2)])
        m2 = prob_measure(FiniteSpace((0, 1)), [F(3, 10), F(7, 10)])
        p = product_measure([m1, m2])
        assert list(p.weights) == [F(3, 20), F(7, 20), F(3, 20), F(7, 20)]
        assert p.space.labels == (("a", 0), ("a", 1), ("b", 0), ("b", 1))

    def test_single_factor_unchanged(self):
        m = prob_measure(FiniteSpace(("a",)), [F(1)])
        assert product_measure([m]) is m

    def test_three_factors_row_major(self):
        ms = [dirac_measure(FiniteSpace((0, 1)), 1) for _ in range(3)]
        p = product_measure(ms)
        assert p.weight((1, 1, 1)) == F(1)
        assert p.space.size == 8

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3),
           st.lists(st.integers(1, 9), min_size=1, max_size=3))
    def test_mass_is_multiplicative(self, ws1, ws2):
        s1 = FiniteSpace(tuple(range(len(ws1))))
        s2 = FiniteSpace(tuple(f"y{i}" for i in range(len(ws2))))
        m1 = measure(s1, [F(w) for w in ws1])
        m2 = measure(s2, [F(w) for w in ws2])
        p = product_measure([m1, m2])
        assert p.total() == m1.total() * m2.total()


class TestConvolve:
    def test_two_fair_dice(self):
        die = uniform_measure(FiniteSpace(tuple(range(1, 7))))
        total = convolve(die, die)
        assert total.space.labels == tuple(range(2, 13))
        expected = [F(k, 36) for k in (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)]
        assert list(total.weights) == expected

    def test_point_mass_at_zero_is_the_identity(self):
        s = FiniteSpace((0, 1, 2))
        nu = prob_measure(s, [F(1, 2), F(0), F(1, 2)])
        delta = dirac_measure(FiniteSpace((0,)), 0)
        assert measures_equal(convolve(delta, nu), nu)

    def test_lattice_points_in_two_dimensions(self):
        m1 = dirac_measure(FiniteSpace(((0, 0), (1, 2))), (1, 2))
        m2 = dirac_measure(FiniteSpace(((3, 4),)), (3, 4))
        out = convolve(m1, m2)
        assert out.weight((4, 6)) == F(1)

    def test_non_integer_labels_are_rejected(self):
        s = FiniteSpace(("a", "b"))
        m = uniform_measure(s)
        with pytest.raises(UnsupportedStructureError):
            convolve(m, m)

    def test_mismatched_lattice_dimensions_are_rejected(self):
        m1 = dirac_measure(FiniteSpace((0, 1)), 0)
        m2 = dirac_measure(FiniteSpace(((0, 0),)), (0, 0))
        with pytest.raises(UnsupportedStructureError):
            convolve(m1, m2)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 5)),
                    min_size=1, max_size=4, unique_by=lambda p: p[0]),
           st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 5)),
                    min_size=1, max_size=4, unique_by=lambda p: p[0]))
    def test_commutative_and_mass_preserving(self, pts1, pts2):
        s1 = FiniteSpace(tuple(sorted(p for p, _ in pts1)))
        s2 = FiniteSpace(tuple(sorted(p for p, _ in pts2)))
        m1 = measure(s1, [F(w) for _, w in sorted(pts1)])
        m2 = measure(s2, [F(w) for _, w in sorted(pts2)])
        ab = convolve(m1, m2)
        ba = convolve(m2, m1)
        assert measures_equal(ab, ba)
        assert ab.total() == m1.total() * m2.total()

    def test_associative(self):
        a = prob_measure(FiniteSpace((0, 1)), [F(1, 3), F(2, 3)])
        b = prob_measure(FiniteSpace((0, 2)), [F(1, 4), F(3, 4)])
        c = prob_measure(FiniteSpace((-1, 5)), [F(1, 2), F(1, 2)])
        assert measures_equal(convolve(convolve(a, b), c),
                              convolve(a, convolve(b, c)))


def _convolve_oracle(m1, m2):
    """Sorted sum labels and weights by a double loop over label pairs,
    each product added to its sum's entry in loop order."""
    acc = {}
    for la, wa in zip(m1.space.labels, m1.weights):
        for lb, wb in zip(m2.space.labels, m2.weights):
            key = (tuple(int(a) + int(b) for a, b in zip(la, lb))
                   if isinstance(la, tuple) else int(la) + int(lb))
            acc[key] = acc[key] + wa * wb if key in acc else wa * wb
    labels = tuple(sorted(acc))
    return labels, [acc[k] for k in labels]


def _random_lattice_measure(rng, d, scalar):
    n = int(rng.integers(1, 7))
    pts = {tuple(map(int, rng.integers(-3, 4, size=d))) if d else int(rng.integers(-6, 7))
           for _ in range(n)}
    if scalar == "float":    # signed, with both zeros and some exact ties
        w = rng.choice([0.0, -0.0, 0.5, -0.25, 1e-300, -3.0], size=len(pts))
        w = np.where(rng.random(len(pts)) < 0.5, w * rng.random(len(pts)), w)
    else:
        w = [F(int(rng.integers(-4, 5)), int(rng.integers(1, 7))) for _ in pts]
    return signed_measure(FiniteSpace(tuple(pts)), w, scalar)


class TestConvolveAgainstOracle:
    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("scalar", ["rational", "float"])
    def test_random_draws_match_the_double_loop(self, scalar, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(150):
            m1, m2 = (_random_lattice_measure(rng, d, scalar) for _ in range(2))
            out = convolve(m1, m2)
            labels, weights = _convolve_oracle(m1, m2)
            assert out.space.labels == labels
            assert all(type(c) is int for lab in labels
                       for c in (lab if d else (lab,)))
            if scalar == "float":          # bit for bit, the sign of zero too
                assert out.weights.tobytes() == np.array(weights).tobytes()
            else:
                assert list(out.weights) == weights
                assert all(type(v) is F for v in out.weights)

    def test_a_lone_negative_zero_keeps_its_sign(self):
        m = signed_measure(FiniteSpace((0, 1)), [-0.0, 1.0], "float")
        out = convolve(m, dirac_measure(FiniteSpace((0,)), 0, "float"))
        assert math.copysign(1.0, out.weights[0]) == -1.0

    @pytest.mark.parametrize("scalar", ["rational", "float"])
    def test_numpy_and_big_integer_labels(self, scalar):
        m1 = signed_measure(FiniteSpace((np.int64(1), 2 ** 70, -(2 ** 64))),
                            ["1/2", "1/3", "1/6"] if scalar == "rational"
                            else [0.5, 0.25, 0.25], scalar)
        m2 = signed_measure(FiniteSpace((np.int64(2), 2 ** 63)), [1, 1], scalar)
        out = convolve(m1, m2)
        labels, weights = _convolve_oracle(m1, m2)
        assert out.space.labels == labels
        assert 2 ** 70 + 2 ** 63 in labels and 3 in labels
        assert all(type(lab) is int for lab in labels)
        assert list(out.weights) == weights

    @pytest.mark.parametrize("labels", [
        ("a", "b"), (True, 2), (1, (2, 3)), ((1, 2), (3,)), ((),),
        (((1, 2), 3), ((1, 2), 4)), (((1, 2), (3, 4)),), (1.0, 2),
    ])
    def test_non_lattice_labels_are_refused(self, labels):
        m = uniform_measure(FiniteSpace(labels))
        with pytest.raises(UnsupportedStructureError) as info:
            convolve(m, m)
        assert str(info.value) == "convolution needs integer or integer-tuple labels"

    def test_dimension_mismatch_names_both_dimensions(self):
        m1 = dirac_measure(FiniteSpace(((0,), (1,))), (0,))
        m2 = dirac_measure(FiniteSpace(((0, 0),)), (0, 0))
        with pytest.raises(UnsupportedStructureError) as info:
            convolve(m1, m2)
        assert str(info.value) == "lattice dimensions differ: 1 vs 2"


class TestRadonNikodym:
    def test_hand_value(self):
        s = FiniteSpace(("a", "b"))
        mu = prob_measure(s, [F(2, 5), F(3, 5)])
        nu = prob_measure(s, [F(1, 10), F(9, 10)])
        dens = radon_nikodym(nu, mu)
        assert dens("a") == F(1, 4)
        assert dens("b") == F(3, 2)

    def test_density_of_measure_against_itself_is_one(self):
        s = FiniteSpace(("a", "b", "c"))
        mu = prob_measure(s, [F(1, 2), F(1, 4), F(1, 4)])
        assert list(radon_nikodym(mu, mu).values) == [F(1)] * 3

    def test_witness_reported_when_not_absolutely_continuous(self):
        s = FiniteSpace(("a", "b"))
        mu = prob_measure(s, [F(1), F(0)])
        nu = prob_measure(s, [F(1, 2), F(1, 2)])
        with pytest.raises(NotAbsolutelyContinuousError) as exc:
            radon_nikodym(nu, mu)
        assert exc.value.witness == "b"

    def test_density_vanishes_on_null_points(self):
        s = FiniteSpace(("a", "b"))
        mu = prob_measure(s, [F(1), F(0)])
        nu = prob_measure(s, [F(1), F(0)])
        dens = radon_nikodym(nu, mu)
        assert dens("b") == F(0)

    def test_multiplying_back_reconstructs(self):
        s = FiniteSpace(("a", "b", "c"))
        mu = measure(s, [F(1, 2), F(0), F(1, 2)])
        nu = measure(s, [F(1, 4), F(0), F(3, 4)])
        dens = radon_nikodym(nu, mu)
        rebuilt = signed_measure(s, dens.values * mu.weights)
        assert measures_equal(rebuilt, nu)


class TestObservables:
    def test_integration_pairing(self):
        s = FiniteSpace(("a", "b"))
        g = bounded_function(s, [F(-9, 10), F(3, 2)])
        m = prob_measure(s, [F(3, 10), F(7, 10)])
        assert integrate(g, m) == F(39, 50)

    def test_sup_norm_and_float_copy(self):
        g = bounded_function(FiniteSpace(("a", "b")), [F(-9, 5), F(3, 2)])
        assert g.sup_norm() == F(9, 5)
        h = g.as_float()
        assert h.scalar == "float" and g.scalar == "rational"
        assert h.values.tolist() == [-1.8, 1.5]
        assert h.sup_norm() == 1.8

    def test_expectation_of_numeric_labels(self):
        m = prob_measure(FiniteSpace((0.0, 1.0, 2.0)), [0.25, 0.5, 0.25])
        assert float(expectation(m)) == pytest.approx(1.0)

    def test_expectation_with_explicit_function(self):
        m = prob_measure(FiniteSpace(("a", "b")), [F(1, 4), F(3, 4)])
        assert expectation(m, lambda lab: F(1) if lab == "b" else F(0)) == F(3, 4)


S2 = FiniteSpace(("a", "b"))
MODEL2 = pm.SupervisedModel(uniform_measure(S2), S2, S2, [[[1, 0], [0, 1]]] * 2)
INF, NAN = math.inf, math.nan
GP = pm.GPModel(pm.zero_mean(), pm.squared_exponential(), 0.1)


@pytest.mark.parametrize("build, message", [
    (lambda: dirac_measure(S2, "a", "bogus"), "unknown scalar backend 'bogus'"),
    (lambda: pm.identity_kernel(S2, "Float"), "unknown scalar backend 'Float'"),
    (lambda: uniform_measure(S2, "rationl"), "unknown scalar backend 'rationl'"),
    (lambda: zeros_like_backend(2, "decimal"), "unknown scalar backend 'decimal'"),
    (lambda: FiniteSpace(([1], [2])),
     "space labels must be hashable: unhashable type: 'list'"),
    (lambda: S2.index([1]), "label [1] not in space"),
    (lambda: pm.posterior(MODEL2, pm.TrainingSet((("a", [1]),))),
     "observed labels [1] outside the label space"),
    (lambda: pm.predictive(MODEL2, pm.TrainingSet(()), pm.TestInputs(([1],))),
     "input [1] not in the model's input space"),
    (lambda: pm.MeasurableMap(S2, S2, ([1], "a")), "assignment value [1] not in target"),
    (lambda: pm.TrainingSet(((1, 2, 3),)), "expected (input, label) pairs"),
    (lambda: pm.TrainingSet((1,)), "expected (input, label) pairs"),
    (lambda: pm.GridSpec(("a",), (1.0,), (0.1,)), "grid bounds and steps must be numbers"),
    (lambda: pm.GridSpec((NAN,), (1.0,), (0.1,)), "grid needs finite bounds"),
    (lambda: pm.GridSpec((0.0,), (INF,), (0.1,)), "grid needs finite bounds"),
    (lambda: pm.GridSpec((0.0,), (1.0,), (NAN,)), "grid needs finite bounds"),
    (lambda: pm.GridSpec((-1e308,), (1e308,), (1.0,)), "grid needs finite bounds"),
    (lambda: pm.GPModel(pm.zero_mean(), pm.squared_exponential(), "x"),
     "noise variance must be finite and nonnegative"),
    (lambda: pm.squared_exponential("a"),
     "length_scale and amplitude must be positive and finite"),
    (lambda: pm.constant_mean("a"), "constant mean 'a' is not a finite real number"),
    (lambda: pm.constant_mean(INF), "constant mean inf is not a finite real number"),
    (lambda: pm.constant_mean(10 ** 400), "constant mean 1000"),
    (lambda: pm.TrainingSet(("ab",)), "expected (input, label) pairs, got ('ab',)"),
    (lambda: pm.TrainingSet(({"a": 1, "b": 2},)), "expected (input, label) pairs"),
    (lambda: pm.GridSpec((0.0,), (1.0,), (1e-300,)),
     "grid axis of 1e+300 cells, over the limit of 4096 per axis"),
    (lambda: pm.GridSpec((0.0, 0.0), (1.0, 1.0), (0.25, 1 / 4097)),
     "grid axis of 4097 cells, over the limit of 4096 per axis"),
    (lambda: pm.GridSpec((0.0,), (1.0,), (3.0,)),
     "grid axis has no cells: 0.333333 cells round to 0"),
    (lambda: pm.GridSpec((0.0, 0.0), (1.0, 1.0), (0.25, 2.0)),
     "grid axis has no cells: 0.5 cells round to 0"),
    (lambda: pm.gp_posterior_predictive(GP, pm.TrainingSet(((0.0, 1.0),)),
                                        pm.TestInputs((0.0,)), jitter=NAN),
     "jitter nan must be finite and nonnegative"),
    (lambda: pm.gp_posterior_predictive(GP, pm.TrainingSet(((0.0, 1.0),)),
                                        pm.TestInputs((0.0,)), jitter=10 ** 400),
     "jitter 1000"),
    (lambda: pm.GPModel(pm.zero_mean(), pm.squared_exponential(), 10 ** 400),
     "noise variance must be finite and nonnegative"),
    (lambda: pm.squared_exponential(10 ** 400),
     "length_scale and amplitude must be positive and finite"),
    (lambda: pm.squared_exponential(1.0, 10 ** 200), "length_scale 1.0 and amplitude 1000"),
], ids=["dirac-backend", "identity-backend", "uniform-backend", "zeros-backend",
        "unhashable-labels", "unhashable-index", "posterior-list-label",
        "predictive-list-point", "map-list-assignment", "triple-pair", "bare-pair",
        "grid-string", "grid-nan", "grid-inf", "grid-nan-step", "grid-overflowing-cells",
        "gp-string-noise", "se-string-length", "mean-string", "mean-inf", "mean-huge-int",
        "string-pair", "dict-pair", "grid-tiny-step", "grid-one-cell-over", "grid-no-cells",
        "grid-half-cell-second-axis", "jitter-nan",
        "jitter-huge-int", "gp-huge-int-noise", "se-huge-int-length",
        "se-int-amplitude-squared-overflows"])
def test_library_constructors_refuse_bad_input_with_schema_error(build, message):
    with pytest.raises(SchemaError) as info:
        build()
    assert str(info.value).startswith(message)
