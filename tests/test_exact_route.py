"""The rational backend's integer route against the Fraction operators.

Every rational result must hold Fractions only (never ints) and equal,
entry for entry, the same computation done with Fraction's own operators
on the same random draws.  The operator route lives here, as the oracle.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from probmorph import bayes, kernels, laws, measures, supervised
from probmorph.measures import RATIONAL, FiniteSpace

SEEDS = range(12)


def _space(rng, prefix, lo=1, hi=6):
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(int(rng.integers(lo, hi + 1)))))


def _same(got, want):
    """Same shape, Fractions only, equal entries."""
    want = np.asarray(want, dtype=object)
    assert got.shape == want.shape
    assert all(type(v) is F for v in got.flat)
    assert (got == want).all()


def _conditioned(w, fallback):
    """Rows of w over their mass, fallback in the rows of zero mass."""
    mass = w.sum(axis=1)
    rows = w / np.where(mass == 0, 1, mass)[:, None]
    rows[mass == 0] = fallback
    return rows


def _with_null_column(rng, src, tgt):
    """A kernel (rows allowed zeros) whose column 0 has no mass anywhere."""
    rows = laws.random_kernel(rng, src, tgt, RATIONAL, allow_zero=True).rows.copy()
    if tgt.size > 1:
        rows[:, 1] += rows[:, 0]
        rows[:, 0] = F(0)
    return kernels.finite_kernel(src, tgt, rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_algebra(seed):
    rng = np.random.default_rng(seed)
    xs, ys, zs = _space(rng, "x"), _space(rng, "y"), _space(rng, "z")
    t1 = laws.random_kernel(rng, xs, ys, RATIONAL, allow_zero=True)
    t2 = laws.random_kernel(rng, ys, zs, RATIONAL)
    _same(kernels.compose(t1, t2).rows, t1.rows @ t2.rows)
    m = laws.random_signed(rng, xs, RATIONAL)
    _same(kernels.pushforward(t1, m).weights, m.weights @ t1.rows)
    g = laws.random_function(rng, ys, RATIONAL)          # signed values
    _same(kernels.pullback(t1, g).values, t1.rows @ g.values)
    joint = laws.random_prob(rng, measures.product_space([xs, ys, zs]), RATIONAL,
                             allow_zero=True)
    cube = joint.weights.reshape(xs.size, ys.size, zs.size)
    for axis, other in enumerate([(1, 2), (0, 2), (0, 1)]):
        _same(kernels.marginal(joint, axis).weights, cube.sum(axis=other))
    _same(np.asarray(joint.total()), joint.weights.sum())


@pytest.mark.parametrize("seed", SEEDS)
def test_inversion_and_disintegration(seed):
    rng = np.random.default_rng(seed)
    thetas, xs = _space(rng, "t"), _space(rng, "x", lo=2)
    prior = laws.random_prob(rng, thetas, RATIONAL, allow_zero=True)
    sampling = _with_null_column(rng, thetas, xs)
    inv = bayes.bayes_invert(bayes.BayesModel(prior, sampling))
    joint = sampling.rows.T * prior.weights
    _same(inv.kernel.rows, _conditioned(joint, prior.weights))
    assert xs.labels[0] in inv.null_points
    mu = bayes.joint_measure(bayes.BayesModel(prior, sampling))
    cond = bayes.disintegrate(mu)
    _same(cond.rows, _conditioned(mu.weights.reshape(thetas.size, xs.size),
                                  F(1, xs.size)))


def _supervised_model(rng):
    hyps, inputs, labels = _space(rng, "h"), _space(rng, "a", lo=2), _space(rng, "y", lo=2)
    prior = laws.random_prob(rng, hyps, RATIONAL)
    rows = np.array([[laws.random_prob_weights(rng, labels.size, RATIONAL, allow_zero=True)
                      for _ in inputs.labels] for _ in hyps.labels])
    return supervised.SupervisedModel(prior, inputs, labels, rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_posterior_and_predictive(seed):
    rng = np.random.default_rng(seed)
    model = _supervised_model(rng)
    xs, ys = model.inputs.labels, model.labels.labels
    pairs = tuple((xs[int(rng.integers(len(xs)))], ys[int(rng.integers(len(ys)))])
                  for _ in range(int(rng.integers(1, 5))))
    points = tuple(xs[int(rng.integers(len(xs)))] for _ in range(int(rng.integers(1, 4))))
    s, t = supervised.TrainingSet(pairs), supervised.TestInputs(points)
    # the operator route: prior times every pair's likelihood, normalized
    w = model.prior.weights.copy()
    for x, y in pairs:
        w = w * model.rows[:, model.inputs.index(x), model.labels.index(y)]
    post = _conditioned(w[None], model.prior.weights)[0]
    got = supervised.posterior(model, s)
    _same(got.measure.weights, post)
    assert got.null_evidence == (w.sum() == 0)
    # the label tuples at the test points, first point slowest
    rows = model.rows[:, model.inputs.index(points[0])]
    for x in points[1:]:
        rows = (rows[:, :, None] * model.rows[:, model.inputs.index(x)][:, None, :]
                ).reshape(len(rows), -1)
    _same(supervised.sampling_kernel(model, points).rows, rows)
    _same(supervised.predictive(model, s, t).measure.weights, post @ rows)


def test_a_null_evidence_posterior_is_the_prior():
    hyps, inputs, labels = (FiniteSpace(("h0", "h1")), FiniteSpace(("a", "b")),
                            FiniteSpace((0, 1)))
    prior = measures.prob_measure(hyps, ["1/3", "2/3"])
    rows = np.array([[["1", "0"], ["0", "1"]], [["1/2", "1/2"], ["1", "0"]]])
    model = supervised.SupervisedModel(prior, inputs, labels, rows)
    got = supervised.posterior(model, supervised.TrainingSet([("a", 1)]))
    assert got.null_evidence is False
    _same(got.measure.weights, [F(0), F(1)])
    got = supervised.posterior(model, supervised.TrainingSet([("a", 1), ("b", 1)]))
    assert got.null_evidence is True
    _same(got.measure.weights, prior.weights)


def _prime_rows(n: int, first_prime: int = 101) -> np.ndarray:
    """An n x n stochastic matrix whose row i is over the i-th prime from
    ``first_prime`` on: every row has its own denominator, so the common
    denominator of the matrix is the product of n primes."""
    primes, p = [], first_prime
    while len(primes) < n:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            primes.append(p)
        p += 1
    rows = np.empty((n, n), dtype=object)
    for i, p in enumerate(primes):
        nums = [1 + (i + j) % 3 for j in range(n - 1)]       # 3 (n - 1) < p
        rows[i] = [F(k, p) for k in nums] + [F(p - sum(nums), p)]
    return rows


def test_distinct_prime_row_denominators():
    """The adversarial case for the lcm: the integers grow with the
    product of the row primes, and the result must still be exact."""
    space = FiniteSpace(tuple(range(24)))
    t = kernels.finite_kernel(space, space, _prime_rows(24))
    _same(kernels.compose(t, t).rows, t.rows @ t.rows)
    prior = measures.prob_measure(space, _prime_rows(24, 401)[0])
    inv = bayes.bayes_invert(bayes.BayesModel(prior, t))
    _same(inv.kernel.rows, _conditioned(t.rows.T * prior.weights, prior.weights))
