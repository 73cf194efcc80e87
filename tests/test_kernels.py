"""Kernel algebra: composition, transport of measures and observables,
deterministic embeddings, joins, graphs, mirroring, marginals."""

from fractions import Fraction as F

import numpy as np
import pytest

import probmorph as pm
from probmorph import (
    FiniteSpace,
    MeasurableMap,
    SchemaError,
    bounded_function,
    compose,
    dirac_kernel,
    finite_kernel,
    graph,
    identity_kernel,
    identity_map,
    join,
    kernels_equal,
    map_compose,
    marginal,
    mirror,
    prob_measure,
    product_kernel,
    projection_map,
    pullback,
    pushforward,
    signed_measure,
    tv_norm,
)

X = FiniteSpace(("x0", "x1"))
Y = FiniteSpace(("y0", "y1"))
Z = FiniteSpace(("z0", "z1"))

T1 = finite_kernel(X, Y, [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
T2 = finite_kernel(Y, Z, [[F(9, 10), F(1, 10)], [F(3, 10), F(7, 10)]])


class TestConstruction:
    def test_rows_must_be_stochastic_exactly_for_rationals(self):
        with pytest.raises(SchemaError):
            finite_kernel(X, Y, [[F(1, 2), F(1, 3)], [F(1), F(0)]])

    def test_rows_must_be_stochastic_within_float_tolerance(self):
        finite_kernel(X, Y, [[0.5, 0.5 + 1e-10], [1.0, 0.0]])
        with pytest.raises(SchemaError):
            finite_kernel(X, Y, [[0.5, 0.6], [1.0, 0.0]])

    def test_non_finite_float_entries_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(SchemaError, match="non-finite"):
                finite_kernel(X, Y, [[bad, 1.0], [1.0, 0.0]])

    def test_negative_entries_rejected(self):
        with pytest.raises(SchemaError):
            finite_kernel(X, Y, [[F(3, 2), F(-1, 2)], [F(1), F(0)]])

    def test_refusals_name_the_row(self):
        with pytest.raises(SchemaError, match=r"^negative weight -1/2 in a kernel at row 1$"):
            finite_kernel(X, Y, [[F(1), F(0)], [F(3, 2), F(-1, 2)]])
        with pytest.raises(SchemaError, match=r"^negative weight -0\.5 in a kernel at row 1$"):
            finite_kernel(X, Y, [[1.0, 0.0], [1.5, -0.5]])
        with pytest.raises(SchemaError,
                           match=r"^rational kernel rows must sum to 1, got 5/6 at row 0$"):
            finite_kernel(X, Y, [[F(1, 2), F(1, 3)], [F(1, 2), F(1, 3)]])
        # the first row off 1 is named, not the worst one
        with pytest.raises(SchemaError, match=r"^float kernel rows must sum to 1, off by 0\.1 "
                                              r"\(tolerance 1e-09\) at row 0$"):
            finite_kernel(X, Y, [[0.5, 0.6], [0.5, 0.9]])

    def test_row_view_is_a_measure(self):
        row = T1.row("x1")
        assert row.space == Y
        assert list(row.weights) == [F(1, 4), F(3, 4)]


    def test_row_view_shares_the_frozen_rows(self):
        row = T1.row("x1")
        assert np.shares_memory(row.weights, T1.rows)
        assert not row.weights.flags.writeable

    def test_direct_construction_checks_the_shape(self):
        with pytest.raises(SchemaError, match=r"expected rows of shape \(2, 2\)"):
            pm.FiniteKernel(X, Y, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_finite_kernel_refuses_a_wrong_shape(self):
        with pytest.raises(SchemaError, match=r"expected rows of shape \(2, 2\)"):
            finite_kernel(X, Y, [[F(1)], [F(1)]])

class TestComposition:
    def test_hand_value(self):
        c = compose(T1, T2)
        assert list(c.rows[0]) == [F(3, 5), F(2, 5)]      # 0.6, 0.4
        assert list(c.rows[1]) == [F(9, 20), F(11, 20)]

    def test_identity_laws(self):
        assert kernels_equal(compose(identity_kernel(X), T1), T1)
        assert kernels_equal(compose(T1, identity_kernel(Y)), T1)

    def test_space_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            compose(T2, T1)

    def test_deterministic_embedding_is_functorial(self):
        f = MeasurableMap(X, Y, ("y1", "y0"))
        g = MeasurableMap(Y, Z, ("z0", "z0"))
        lhs = dirac_kernel(map_compose(f, g))
        rhs = compose(dirac_kernel(f), dirac_kernel(g))
        assert kernels_equal(lhs, rhs)


class TestTransport:
    def test_pushforward_hand_value(self):
        m = prob_measure(X, [F(1, 5), F(4, 5)])
        out = pushforward(T1, m)
        assert list(out.weights) == [F(3, 10), F(7, 10)]

    def test_pushforward_preserves_probability(self):
        m = prob_measure(X, [F(1, 3), F(2, 3)])
        assert pushforward(T1, m).is_probability()

    def test_pullback_hand_value(self):
        g = bounded_function(Y, [F(-9, 10), F(3, 2)])
        out = pullback(T1, g)
        assert list(out.values) == [F(3, 10), F(9, 10)]

    def test_pullback_fixes_constant_one(self):
        ones = pm.constant_function(Y, F(1))
        assert list(pullback(T1, ones).values) == [F(1), F(1)]

    def test_duality_pairing(self):
        g = bounded_function(Y, [F(-9, 10), F(3, 2)])
        m = prob_measure(X, [F(1, 5), F(4, 5)])
        lhs = pm.integrate(g, pushforward(T1, m))
        rhs = pm.integrate(pullback(T1, g), m)
        assert lhs == rhs == F(39, 50)

    def test_tv_contraction_on_signed_input(self):
        m = signed_measure(X, [F(3), F(-2)])
        assert tv_norm(pushforward(T1, m)) <= tv_norm(m)


class TestJoinAndGraph:
    def test_join_is_the_rowwise_product(self):
        j = join(T1, T1)
        # row x0: (1/2)(1/2), (1/2)(1/2), ... over (y,y') pairs
        assert list(j.rows[0]) == [F(1, 4)] * 4
        assert list(j.rows[1]) == [F(1, 16), F(3, 16), F(3, 16), F(9, 16)]
        assert j.target.labels[1] == ("y0", "y1")

    def test_graph_rows_sit_on_the_diagonal_blocks(self):
        g = graph(T1)
        assert g.target == pm.product_space([X, Y])
        assert list(g.rows[0]) == [F(1, 2), F(1, 2), F(0), F(0)]
        assert list(g.rows[1]) == [F(0), F(0), F(1, 4), F(3, 4)]

    def test_graph_marginals_recover_kernel_and_identity(self):
        g = graph(T1)
        p0 = dirac_kernel(projection_map(g.target, 0))
        p1 = dirac_kernel(projection_map(g.target, 1))
        assert kernels_equal(compose(g, p1), T1)
        assert kernels_equal(compose(g, p0), identity_kernel(X))

    def test_graph_of_composite_factors_through_product_kernel(self):
        lhs = graph(compose(T1, T2))
        rhs = compose(graph(T1), product_kernel(identity_kernel(X), T2))
        assert kernels_equal(lhs, rhs)

    def test_graph_after_deterministic_reparametrization(self):
        w = FiniteSpace(("w0", "w1", "w2"))
        kappa = MeasurableMap(w, X, ("x1", "x0", "x1"))
        dk = dirac_kernel(kappa)
        lhs = compose(graph(compose(dk, T1)),
                      product_kernel(dk, identity_kernel(Y)))
        rhs = compose(dk, graph(T1))
        assert kernels_equal(lhs, rhs)

    def test_product_kernel_acts_factorwise(self):
        pk = product_kernel(T1, T2)
        # row (x1, y0): T1 row x1 tensor T2 row y0
        i = pk.source.index(("x1", "y0"))
        expected = [F(1, 4) * F(9, 10), F(1, 4) * F(1, 10),
                    F(3, 4) * F(9, 10), F(3, 4) * F(1, 10)]
        assert list(pk.rows[i]) == expected


class TestMirrorAndMarginal:
    joint = signed_measure(pm.product_space([X, Y]),
                           [F(1, 10), F(3, 10), F(3, 10), F(3, 10)])

    def test_marginal_hand_values(self):
        mx = marginal(self.joint, 0)
        my = marginal(self.joint, 1)
        assert list(mx.weights) == [F(2, 5), F(3, 5)]
        assert list(my.weights) == [F(2, 5), F(3, 5)]
        assert mx.space == X and my.space == Y

    def test_mirror_swaps_factors(self):
        m = mirror(self.joint)
        assert m.space == pm.product_space([Y, X])
        assert m.weight(("y1", "x0")) == self.joint.weight(("x0", "y1"))

    def test_mirror_is_an_involution(self):
        assert pm.measures_equal(mirror(mirror(self.joint)), self.joint)

    def test_mirror_commutes_with_marginals(self):
        assert pm.measures_equal(marginal(mirror(self.joint), 0),
                                 marginal(self.joint, 1))

    def test_non_product_space_is_rejected(self):
        m = prob_measure(X, [F(1, 2), F(1, 2)])
        with pytest.raises(pm.NonProductSpaceError):
            mirror(m)

    def test_marginal_of_pushed_graph_is_the_pushforward(self):
        m = prob_measure(X, [F(1, 5), F(4, 5)])
        j = pushforward(graph(T1), m)
        assert pm.measures_equal(marginal(j, 1), pushforward(T1, m))
        assert pm.measures_equal(marginal(j, 0), m)


class TestFloatBackendAgreesWithRational:
    def test_composition_matches_to_1e_15(self):
        cf = compose(T1.as_float(), T2.as_float())
        cr = compose(T1, T2).as_float()
        assert np.max(np.abs(cf.rows - cr.rows)) < 1e-15

    def test_large_random_chain_stays_within_1e_12(self):
        rng = np.random.default_rng(7)
        from probmorph.laws import random_kernel, random_space
        xs = random_space(rng, 6, "a")
        ys = random_space(rng, 6, "b")
        zs = random_space(rng, 6, "c")
        k1 = random_kernel(rng, xs, ys, "rational")
        k2 = random_kernel(rng, ys, zs, "rational")
        exact = compose(k1, k2).as_float()
        approx = compose(k1.as_float(), k2.as_float())
        assert np.max(np.abs(exact.rows - approx.rows)) < 1e-12


def _dirac_route_product_kernel(t1, t2):
    """product_kernel as joins of projection precompositions: the dense
    route the broadcast outer product replaced."""
    src = pm.product_space([t1.source, t2.source])
    p1 = dirac_kernel(projection_map(src, 0), t1.scalar)
    p2 = dirac_kernel(projection_map(src, 1), t2.scalar)
    return join(compose(p1, t1), compose(p2, t2))


def _same_rows(a, b):
    """Exact on the rational backend (every entry a Fraction), bit for
    bit on the float backend."""
    if a.source != b.source or a.target != b.target or a.rows.dtype != b.rows.dtype:
        return False
    if a.scalar == "float":
        return a.rows.tobytes() == b.rows.tobytes()
    return (all(isinstance(v, F) for v in a.rows.flat)
            and bool(np.equal(a.rows, b.rows).all()))


class TestBroadcastMatchesCompositionRoutes:
    @pytest.mark.parametrize("scalar", ["rational", "float"])
    @pytest.mark.parametrize("seed", range(12))
    def test_product_kernel_equals_the_dirac_projection_route(self, scalar, seed):
        from probmorph.laws import random_kernel, random_space
        rng = np.random.default_rng(seed)
        xs, ys = random_space(rng, 4, "x"), random_space(rng, 4, "y")
        zs, ws = random_space(rng, 4, "z"), random_space(rng, 4, "w")
        t1 = random_kernel(rng, xs, ys, scalar, allow_zero=True)
        t2 = random_kernel(rng, zs, ws, scalar, allow_zero=True)
        assert _same_rows(product_kernel(t1, t2), _dirac_route_product_kernel(t1, t2))

    @pytest.mark.parametrize("scalar", ["rational", "float"])
    @pytest.mark.parametrize("seed", range(12))
    def test_graph_equals_the_join_with_the_identity(self, scalar, seed):
        from probmorph.laws import random_kernel, random_space
        rng = np.random.default_rng(seed)
        xs, ys = random_space(rng, 5, "x"), random_space(rng, 5, "y")
        t = random_kernel(rng, xs, ys, scalar, allow_zero=True)
        assert _same_rows(graph(t), join(identity_kernel(xs, scalar), t))

    def test_dirac_kernel_rows_are_fraction_point_masses(self):
        w = FiniteSpace(("w0", "w1", "w2"))
        dk = dirac_kernel(MeasurableMap(w, X, ("x1", "x0", "x1")))
        assert [list(r) for r in dk.rows] == [[F(0), F(1)], [F(1), F(0)], [F(0), F(1)]]
        assert all(isinstance(v, F) for v in dk.rows.flat)
