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

    def test_the_prior_is_checked_as_a_sampling_row_is(self):
        # a float entry in [-1e-12, 0) is clamped in the prior as in a row
        samp = SAMPLING.as_float()
        model = BayesModel(prior=pm.signed_measure(TH, [1.0000000000001, -1e-13]),
                           sampling=samp)
        assert model.prior.weights.tolist() == [1.0000000000001, 0.0]
        for weights, message in (
                ([1.0, -1e-9], r"^negative weight -1e-09 in a prior$"),
                ([0.5, 0.4], r"^float prior weights must sum to 1, off by 0\.1 "
                             r"\(tolerance 1e-09\)$"),
                ([F(1, 2), F(1, 3)], r"^rational prior weights must sum to 1, got 5/6$"),
                ([F(3, 2), F(-1, 2)], r"^negative weight -1/2 in a prior$")):
            bad = pm.signed_measure(TH, weights)
            with pytest.raises(SchemaError, match=message):
                BayesModel(prior=bad, sampling=samp if bad.scalar == "float" else SAMPLING)

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

    def test_rejects_three_factors(self):
        three = pm.product_measure([prob_measure(X, [F(1, 2), F(1, 2)])] * 3)
        assert len(three.space.factors) == 3
        with pytest.raises(SchemaError, match="^disintegration needs a binary product space$"):
            disintegrate(three)

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

    def test_kernels_on_the_wrong_spaces(self):
        inv = bayes_invert(MODEL).kernel
        with pytest.raises(SchemaError, match="^candidate kernel has the wrong spaces$"):
            verify_inversion(MODEL, SAMPLING)         # runs TH -> X, not X -> TH
        assert not ae_equal(inv, SAMPLING, PRIOR)       # different source and target
        with pytest.raises(SchemaError, match="^reference measure lives on the wrong space$"):
            ae_equal(inv, inv, PRIOR)                  # PRIOR is on TH, inv's source X

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


def _null_heavy_model(seed):
    """A random rational model with zero prior points and at least one
    observation column that no parameter reaches."""
    from probmorph.laws import random_kernel, random_prob
    rng = np.random.default_rng(seed)
    th = FiniteSpace(tuple(f"t{i}" for i in range(int(rng.integers(2, 6)))))
    xs = FiniteSpace(tuple(f"x{j}" for j in range(int(rng.integers(2, 6)))))
    prior = random_prob(rng, th, "rational", allow_zero=True)
    rows = random_kernel(rng, th, xs, "rational", allow_zero=True).rows.copy()
    dead = int(rng.integers(0, xs.size))
    for i in range(th.size):
        mass, rows[i, dead] = rows[i, dead], F(0)
        rows[i, (dead + 1) % xs.size] += mass
    return BayesModel(prior=prior, sampling=finite_kernel(th, xs, rows)), rng


def _all_fractions(arr):
    return all(isinstance(v, F) for v in arr.flat)


class TestNullMasksAgainstHandFormulas:
    @pytest.mark.parametrize("seed", range(15))
    def test_bayes_invert(self, seed):
        model, _ = _null_heavy_model(seed)
        p, s = model.prior.weights, model.sampling.rows
        inv = bayes_invert(model)
        nulls = []
        for j, x in enumerate(model.observations.labels):
            pred = sum(s[i, j] * p[i] for i in range(len(p)))
            if pred == 0:
                nulls.append(x)
                want = list(p)
            else:
                want = [s[i, j] * p[i] / pred for i in range(len(p))]
            assert list(inv.kernel.rows[j]) == want
        assert inv.null_points == tuple(nulls) and nulls
        assert _all_fractions(inv.kernel.rows)
        # float entries are at most 1 and carry a few roundings each
        finv = bayes_invert(model.as_float())
        assert finv.null_points == inv.null_points
        err = np.max(np.abs(finv.kernel.rows - inv.kernel.rows.astype(float)))
        assert err <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("seed", range(15))
    def test_disintegrate(self, seed):
        model, _ = _null_heavy_model(seed)
        mu = joint_measure(model)
        cond = disintegrate(mu)
        w = mu.weights.reshape(model.parameters.size, model.observations.size)
        for i in range(w.shape[0]):
            mass = sum(w[i])
            want = ([F(1, w.shape[1])] * w.shape[1] if mass == 0
                    else [v / mass for v in w[i]])
            assert list(cond.rows[i]) == want
        assert _all_fractions(cond.rows)

    @pytest.mark.parametrize("seed", range(15))
    def test_radon_nikodym(self, seed):
        model, rng = _null_heavy_model(seed)
        mu = predictive_measure(model)
        scale = [F(int(k), 7) for k in rng.integers(0, 8, size=mu.space.size)]
        nu = pm.measure(mu.space, [a * b for a, b in zip(scale, mu.weights)])
        dens = pm.radon_nikodym(nu, mu)
        want = [n / m if m != 0 else F(0) for n, m in zip(nu.weights, mu.weights)]
        assert list(dens.values) == want
        assert _all_fractions(dens.values)
        j = next(j for j, m in enumerate(mu.weights) if m == 0)
        bad = nu.weights.copy()
        bad[j] = F(1, 3)
        with pytest.raises(pm.NotAbsolutelyContinuousError) as err:
            pm.radon_nikodym(pm.measure(mu.space, bad), mu)
        assert err.value.witness == mu.space.labels[j]

    @pytest.mark.parametrize("seed", range(15))
    def test_ae_equal(self, seed):
        model, rng = _null_heavy_model(seed)
        t, mu = model.sampling, model.prior
        uniform = [F(1, t.target.size)] * t.target.size
        for row in range(t.source.size):
            rows = t.rows.copy()
            rows[row] = uniform
            other = finite_kernel(t.source, t.target, rows)
            want = all(list(t.rows[i]) == list(other.rows[i])
                       for i in range(t.source.size) if mu.weights[i] > 0)
            assert ae_equal(t, other, mu) == want
        assert ae_equal(t, t, mu)
