"""Spaces, measures, observables: construction rules, norms, products,
convolution and densities."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

    def test_expectation_of_numeric_labels(self):
        m = prob_measure(FiniteSpace((0.0, 1.0, 2.0)), [0.25, 0.5, 0.25])
        assert float(expectation(m)) == pytest.approx(1.0)

    def test_expectation_with_explicit_function(self):
        m = prob_measure(FiniteSpace(("a", "b")), [F(1, 4), F(3, 4)])
        assert expectation(m, lambda lab: F(1) if lab == "b" else F(0)) == F(3, 4)
