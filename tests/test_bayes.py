"""Disintegration and Bayesian inversion on finite models."""

import time
from fractions import Fraction as F

import numpy as np
import pytest

import probmorph as pm
from probmorph import (
    BayesModel,
    FiniteSpace,
    SchemaError,
    ae_equal,
    bayes_invert,
    disintegrate,
    finite_kernel,
    graph,
    invert_composition,
    joint_measure,
    kernels_equal,
    marginal,
    measures_equal,
    predictive_measure,
    prob_measure,
    pushforward,
    verify_inversion,
)

TH = FiniteSpace(("t1", "t2"))
X = FiniteSpace(("x0", "x1"))
Z = FiniteSpace(("z0", "z1", "z2"))

PRIOR = prob_measure(TH, [F(1, 5), F(4, 5)])
SAMPLING = finite_kernel(TH, X, [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
MODEL = BayesModel(prior=PRIOR, sampling=SAMPLING)


class TestModelValidation:
    def test_prior_must_be_probability(self):
        bad = pm.signed_measure(TH, [F(1, 2), F(1, 3)])
        with pytest.raises(SchemaError):
            BayesModel(prior=bad, sampling=SAMPLING)

    def test_spaces_must_line_up(self):
        with pytest.raises(SchemaError):
            BayesModel(prior=prob_measure(X, [F(1, 2), F(1, 2)]),
                       sampling=SAMPLING)

    def test_joint_and_predictive_are_consistent(self):
        j = joint_measure(MODEL)
        assert measures_equal(marginal(j, 0), PRIOR)
        assert measures_equal(marginal(j, 1), predictive_measure(MODEL))


class TestDisintegrate:
    def test_hand_values(self):
        prod = pm.product_space([X, FiniteSpace(("y0", "y1"))])
        mu = prob_measure(prod, [F(1, 10), F(3, 10), F(1, 5), F(2, 5)])
        cond = disintegrate(mu)
        assert list(cond.rows[0]) == [F(1, 4), F(3, 4)]
        assert list(cond.rows[1]) == [F(1, 3), F(2, 3)]

    def test_null_rows_become_uniform(self):
        prod = pm.product_space([X, FiniteSpace(("y0", "y1"))])
        mu = pm.measure(prod, [F(0), F(0), F(1, 2), F(1, 2)])
        cond = disintegrate(mu)
        assert list(cond.rows[0]) == [F(1, 2), F(1, 2)]

    def test_roundtrip_reconstructs_the_joint(self):
        prod = pm.product_space([X, FiniteSpace(("y0", "y1"))])
        mu = prob_measure(prod, [F(0), F(0), F(1, 4), F(3, 4)])
        rebuilt = pushforward(graph(disintegrate(mu)), marginal(mu, 0))
        assert measures_equal(rebuilt, mu)

    def test_rejects_non_product_and_signed_input(self):
        with pytest.raises(pm.NonProductSpaceError):
            disintegrate(prob_measure(X, [F(1, 2), F(1, 2)]))
        prod = pm.product_space([X, FiniteSpace(("y0", "y1"))])
        with pytest.raises(SchemaError):
            disintegrate(pm.signed_measure(prod, [F(1), F(-1), F(1, 2), F(1, 2)]))

    def test_conditional_of_a_product_is_the_second_factor(self):
        mx = prob_measure(X, [F(1, 3), F(2, 3)])
        my = prob_measure(FiniteSpace(("y0", "y1")), [F(1, 4), F(3, 4)])
        cond = disintegrate(pm.product_measure([mx, my]))
        for i in range(2):
            assert list(cond.rows[i]) == [F(1, 4), F(3, 4)]


class TestBayesInvert:
    def test_hand_values(self):
        inv = bayes_invert(MODEL)
        assert inv.null_points == ()
        assert list(inv.kernel.rows[0]) == [F(1, 3), F(2, 3)]
        assert list(inv.kernel.rows[1]) == [F(1, 7), F(6, 7)]

    def test_rows_against_explicit_bayes_rule(self):
        # independent oracle: q(theta|x) = p(x|theta) prior(theta) / pred(x)
        inv = bayes_invert(MODEL)
        for j, x in enumerate(X.labels):
            pred = sum(SAMPLING.rows[i][j] * PRIOR.weights[i] for i in range(2))
            for i in range(2):
                want = SAMPLING.rows[i][j] * PRIOR.weights[i] / pred
                assert inv.kernel.rows[j][i] == want

    def test_null_observations_get_prior_rows_and_are_reported(self):
        prior = prob_measure(TH, [F(1), F(0)])
        samp = finite_kernel(TH, Z, [[F(1, 2), F(1, 2), F(0)],
                                     [F(0), F(1, 2), F(1, 2)]])
        inv = bayes_invert(BayesModel(prior=prior, sampling=samp))
        assert inv.null_points == ("z2",)
        assert list(inv.kernel.rows[2]) == [F(1), F(0)]

    def test_verification_identity_holds(self):
        inv = bayes_invert(MODEL)
        assert verify_inversion(MODEL, inv.kernel)

    def test_verification_rejects_a_perturbed_kernel(self):
        wrong = finite_kernel(X, TH, [[F(1, 2), F(1, 2)], [F(1, 7), F(6, 7)]])
        assert not verify_inversion(MODEL, wrong)

    def test_joint_equals_the_graph_pushforward(self):
        # the joint is built by broadcasting; the dense graph is the oracle
        prior = prob_measure(TH, [F(1), F(0)])
        samp = finite_kernel(TH, Z, [[F(1, 2), F(1, 2), F(0)],
                                     [F(0), F(1, 3), F(2, 3)]])
        for model in (MODEL, BayesModel(prior=prior, sampling=samp)):
            j = joint_measure(model)
            want = pushforward(graph(model.sampling), model.prior)
            assert j.space == want.space
            assert list(j.weights) == list(want.weights)

    def test_rational_64_by_64_verifies_quickly(self):
        from probmorph.laws import random_kernel, random_prob
        rng = np.random.default_rng(64)
        th = FiniteSpace(tuple(f"t{i}" for i in range(64)))
        xs = FiniteSpace(tuple(f"x{i}" for i in range(64)))
        model = BayesModel(prior=random_prob(rng, th, "rational"),
                           sampling=random_kernel(rng, th, xs, "rational",
                                                  allow_zero=True))
        inv = bayes_invert(model)
        t0 = time.perf_counter()
        assert verify_inversion(model, inv.kernel, 0.0)
        assert time.perf_counter() - t0 < 0.5

    def test_float_backend_verifies_within_tolerance(self):
        fm = MODEL.as_float()
        inv = bayes_invert(fm)
        assert verify_inversion(fm, inv.kernel, tol=1e-9)

    def test_inverse_rows_are_unique_off_null_points(self):
        # change the inverse only on a zero-mass observation: the
        # verification identity still holds and a.e. equality is kept
        prior = prob_measure(TH, [F(1), F(0)])
        samp = finite_kernel(TH, Z, [[F(1, 2), F(1, 2), F(0)],
                                     [F(0), F(1, 2), F(1, 2)]])
        model = BayesModel(prior=prior, sampling=samp)
        inv = bayes_invert(model)
        rows = [list(r) for r in inv.kernel.rows]
        rows[2] = [F(0), F(1)]
        other = finite_kernel(Z, TH, rows)
        assert verify_inversion(model, other)
        assert ae_equal(inv.kernel, other, predictive_measure(model))
        assert not kernels_equal(inv.kernel, other)


class TestDoubleInversion:
    def test_inverting_twice_returns_the_sampling_kernel_ae(self):
        inv = bayes_invert(MODEL)
        pred = prob_measure(X, predictive_measure(MODEL).weights)
        back = bayes_invert(BayesModel(prior=pred, sampling=inv.kernel))
        assert ae_equal(back.kernel, SAMPLING, PRIOR)

    def test_null_prior_point_can_disagree(self):
        prior = prob_measure(TH, [F(1), F(0)])
        samp = finite_kernel(TH, X, [[F(1, 2), F(1, 2)], [F(1), F(0)]])
        model = BayesModel(prior=prior, sampling=samp)
        inv = bayes_invert(model)
        pred = prob_measure(X, predictive_measure(model).weights)
        back = bayes_invert(BayesModel(prior=pred, sampling=inv.kernel))
        assert ae_equal(back.kernel, samp, prior)
        # the t2 row is reconstructed from no information at all
        assert not kernels_equal(back.kernel, samp)


class TestInvertComposition:
    P2 = finite_kernel(X, Z, [[F(1, 3), F(1, 3), F(1, 3)],
                              [F(1, 2), F(0), F(1, 2)]])

    def test_matches_direct_inversion_of_the_composite(self):
        chained = invert_composition(MODEL, self.P2)
        direct = bayes_invert(
            BayesModel(prior=PRIOR,
                       sampling=pm.compose(SAMPLING, self.P2))).kernel
        assert kernels_equal(chained, direct)

    def test_identity_second_stage_reduces_to_plain_inversion(self):
        ident = pm.identity_kernel(X)
        chained = invert_composition(MODEL, ident)
        assert kernels_equal(chained, bayes_invert(MODEL).kernel)

    def test_agreement_survives_null_observations(self):
        p2 = finite_kernel(X, Z, [[F(1, 2), F(1, 2), F(0)],
                                  [F(1), F(0), F(0)]])
        chained = invert_composition(MODEL, p2)
        direct = bayes_invert(
            BayesModel(prior=PRIOR, sampling=pm.compose(SAMPLING, p2))).kernel
        assert kernels_equal(chained, direct)
