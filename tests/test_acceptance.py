"""Acceptance gate: nine end-to-end guarantees, each pinned to an explicit
tolerance and time budget.  Run with ``pytest -s`` to see one PASS line per
criterion; any failure here means the build is not releasable.
"""

import json
import math
import time
from fractions import Fraction as F

import numpy as np

import probmorph
import probmorph.kernels
from probmorph import (
    RATIONAL,
    FLOAT,
    BayesModel,
    FiniteSpace,
    GPModel,
    SupervisedModel,
    TestInputs,
    TrainingSet,
    ae_equal,
    bayes_invert,
    compose,
    finite_kernel,
    gauss_condition,
    gp_joint,
    gp_posterior_predictive,
    invert_composition,
    posterior,
    predictive,
    prob_measure,
    pushforward,
    squared_exponential,
    verify_inversion,
    zero_mean,
)
from probmorph import laws
from probmorph.cli import main as cli_main

SEED = 17


def _passed(num, text, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"PASS criterion {num}: {text}{suffix}")


def test_criterion_1_composition_laws():
    # associativity, pushforward/pullback functoriality, duality:
    # exact over rationals, max-abs <= 1e-12 over floats, 200 draws each
    t0 = time.perf_counter()
    bad_rat = laws.check_composition_laws(
        np.random.default_rng(SEED), 200, RATIONAL, 0.0)
    bad_flt = laws.check_composition_laws(
        np.random.default_rng(SEED), 200, FLOAT, 1e-12)
    elapsed = time.perf_counter() - t0
    assert bad_rat == []
    assert bad_flt == []
    assert elapsed < 10.0
    _passed(1, "composition laws, 200 kernels, exact rational + 1e-12 float",
            elapsed)


def test_criterion_2_graph_identities():
    t0 = time.perf_counter()
    bad = laws.check_graph_laws(np.random.default_rng(SEED), 200, RATIONAL, 0.0)
    elapsed = time.perf_counter() - t0
    assert bad == []
    assert elapsed < 10.0
    _passed(2, "graph identities, 200 instances, exact rational", elapsed)


def test_criterion_3_disintegration_round_trip():
    t0 = time.perf_counter()
    bad = laws.check_disintegration(
        np.random.default_rng(SEED), 200, RATIONAL, 0.0)
    elapsed = time.perf_counter() - t0
    assert bad == []
    assert elapsed < 10.0
    _passed(3, "disintegration round-trip, 200 joints, exact rational", elapsed)


def test_criterion_4_inversion_suite():
    # per chain: the inversion identity holds exactly, double inversion
    # returns the sampling kernel a.e., and stagewise inversion of a
    # two-step chain both satisfies the identity for the composite and
    # agrees a.e. with inverting the composite directly
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        thetas = laws.random_space(rng, 4, "t")
        xs = laws.random_space(rng, 4, "x")
        zs = laws.random_space(rng, 4, "z")
        prior = laws.random_prob(rng, thetas, RATIONAL, allow_zero=True)
        p1 = laws.random_kernel(rng, thetas, xs, RATIONAL, allow_zero=True)
        p2 = laws.random_kernel(rng, xs, zs, RATIONAL, allow_zero=True)

        model = BayesModel(prior=prior, sampling=p1)
        inv = bayes_invert(model)
        assert verify_inversion(model, inv.kernel, 0.0)

        pred = pushforward(p1, prior)
        back = bayes_invert(BayesModel(
            prior=prob_measure(xs, pred.weights), sampling=inv.kernel))
        assert ae_equal(back.kernel, p1, prior, 0.0)

        composite = BayesModel(prior=prior, sampling=compose(p1, p2))
        chained = invert_composition(model, p2)
        assert verify_inversion(composite, chained, 0.0)
        direct = bayes_invert(composite).kernel
        final_pred = pushforward(composite.sampling, prior)
        assert ae_equal(chained, direct, final_pred, 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    _passed(4, "inversion identity + double + stagewise, 200 chains, exact",
            elapsed)


def test_criterion_5_absolute_continuity_preserved():
    t0 = time.perf_counter()
    bad = laws.check_ac_preservation(
        np.random.default_rng(SEED), 200, RATIONAL, 0.0)
    elapsed = time.perf_counter() - t0
    assert bad == []
    assert elapsed < 5.0
    _passed(5, "pushforward preserves absolute continuity, 200 triples",
            elapsed)


def test_criterion_6_gaussian_finite_bridge():
    # 20 random 1-D problems, prior var in [0.5, 2], noise var in [0.25, 4],
    # grid spanning 8 prior sd at sd/100 steps; posterior mean and variance
    # from the discretized model within 1e-3 relative of the closed form
    t0 = time.perf_counter()
    bad = laws.check_gaussian_finite_bridge(
        np.random.default_rng(SEED), 20, FLOAT, 1e-3)
    elapsed = time.perf_counter() - t0
    assert bad == []
    assert elapsed < 30.0
    _passed(6, "finite-grid inversion matches closed form to 1e-3, 20 cases",
            elapsed)


def test_criterion_7_gp_two_route():
    t0 = time.perf_counter()
    bad = laws.check_gp_two_route(np.random.default_rng(SEED), 20, FLOAT, 1e-10)
    assert bad == []

    # hand instance: unit squared-exponential, one pair (0, 1), unit noise,
    # queried at the training point -> N(1/2, 1/2)
    gp = GPModel(mean_fn=zero_mean(),
                 cov_fn=squared_exponential(length_scale=1.0, amplitude=1.0),
                 noise_var=1.0)
    s, t = TrainingSet(((0.0, 1.0),)), TestInputs((0.0,))
    direct = gp_posterior_predictive(gp, s, t)
    assert abs(direct.mean[0] - 0.5) <= 1e-12
    assert abs(direct.cov[0, 0] - 0.5) <= 1e-12
    routed = gauss_condition(gp_joint(gp, [0.0], [0.0]), 1, [1.0])
    assert abs(routed.mean[0] - direct.mean[0]) <= 1e-12
    assert abs(routed.cov[0, 0] - direct.cov[0, 0]) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(7, "GP closed form = generic conditioning, 20 cases at 1e-10, "
               "hand value at 1e-12", elapsed)


def test_criterion_8_supervised_models():
    t0 = time.perf_counter()
    bad = laws.check_supervised(np.random.default_rng(SEED), 100, RATIONAL, 0.0)
    assert bad == []

    # two Bernoulli labelers under a uniform prior; observing label 1 at
    # input "a" gives posterior (1/6, 5/6) and predictive mass 17/30 on
    # label 1 at input "b", all exact
    th, ins, labs = FiniteSpace(("t1", "t2")), FiniteSpace(("a", "b")), \
        FiniteSpace((0, 1))
    h1 = finite_kernel(ins, labs, [[F(9, 10), F(1, 10)],
                                   [F(1, 10), F(9, 10)]])
    h2 = finite_kernel(ins, labs, [[F(1, 2), F(1, 2)],
                                   [F(1, 2), F(1, 2)]])
    model = SupervisedModel(prob_measure(th, [F(1, 2), F(1, 2)]), ins, labs,
                            np.stack([h1.rows, h2.rows]))
    post = posterior(model, TrainingSet((("a", 1),)))
    assert list(post.measure.weights) == [F(1, 6), F(5, 6)]
    pred = predictive(model, TrainingSet((("a", 1),)), TestInputs(("b",)))
    assert pred.measure.weight(1) == F(17, 30)

    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    _passed(8, "sequential/exchangeable/restriction on 100 models, "
               "hand values exact", elapsed)


def test_criterion_9_cli_determinism_and_mutation(tmp_path, monkeypatch,
                                                  capsys):
    model = {
        "prior": {"labels": ["t1", "t2"], "weights": ["1/5", "4/5"],
                  "scalar": "rational"},
        "sampling": {"source": ["t1", "t2"], "target": ["x0", "x1"],
                     "rows": [["1/2", "1/2"], ["1/4", "3/4"]]},
    }
    inp = tmp_path / "model.json"
    inp.write_text(json.dumps(model))

    # identical invocations must produce byte-identical artifacts
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["invert", "--input", str(inp), "--output", str(a)]) == 0
    assert cli_main(["invert", "--input", str(inp), "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    assert cli_main(["check-laws", "--seed", "3", "--output", str(ra)]) == 0
    assert cli_main(["check-laws", "--seed", "3", "--output", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()
    report = json.loads(ra.read_text())
    assert report["total_failures"] == 0
    assert all(c["num_failures"] == 0 for c in report["checks"])

    # a deliberately mutated operation must be caught with a nonzero exit
    real = probmorph.kernels.compose

    def sabotaged(t1, t2):
        out = real(t1, t2)
        if out.source.size < 2:
            return out
        return probmorph.kernels.FiniteKernel(
            out.source, out.target, out.rows[::-1])

    monkeypatch.setattr(probmorph.kernels, "compose", sabotaged)
    code = cli_main(["check-laws", "--seed", "3", "--trials", "10"])
    capsys.readouterr()
    assert code == 4
    _passed(9, "byte-identical artifacts, zero failures clean, "
               "mutation exits nonzero")
