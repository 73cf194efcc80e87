"""Randomized checks of the algebraic laws the package promises.

Each law family is written as one trial: a generator that draws its
inputs and yields ``(law, holds)`` for each law it checks, so a new law
is one ``yield``.  ``_trials`` turns the trial into a check that runs a
number of seeded random trials and returns a list of counterexample
records (empty means the law held every time).  The CLI exposes these
through ``check-laws``; the acceptance tests drive the same functions
with their own trial counts.

Functions here call operations through their module namespaces, so a
deliberately broken operation (e.g. a monkeypatched compose) is picked
up by the checks.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import bayes, gaussian, kernels, measures, supervised
from .errors import SchemaError, _clip
from .measures import FLOAT, RATIONAL, FiniteSpace


# ---------------------------------------------------------------------------
# random generators

def random_space(rng, max_size: int = 6, prefix: str = "x") -> FiniteSpace:
    n = int(rng.integers(1, max_size + 1))
    return FiniteSpace(tuple(f"{prefix}{i}" for i in range(n)))


def random_prob_weights(rng, n: int, scalar: str, allow_zero: bool = False):
    if scalar == RATIONAL:
        lo = 0 if allow_zero else 1
        nums = rng.integers(lo, 10, size=n)
        if nums.sum() == 0:
            nums[int(rng.integers(0, n))] = 1
        total = int(nums.sum())
        return [Fraction(int(v), total) for v in nums]
    vals = rng.uniform(0.1, 1.0, size=n)
    if allow_zero:
        vals[rng.random(n) < 0.3] = 0.0
        if vals.sum() == 0.0:
            vals[int(rng.integers(0, n))] = 1.0
    return vals / vals.sum()


def random_prob(rng, space: FiniteSpace, scalar: str, allow_zero: bool = False):
    return measures.prob_measure(
        space, random_prob_weights(rng, space.size, scalar, allow_zero), scalar)


def _random_values(rng, n: int, scalar: str):
    if scalar == RATIONAL:
        den = int(rng.integers(1, 10))
        return [Fraction(int(v), den) for v in rng.integers(-9, 10, size=n)]
    return rng.normal(size=n)


def random_signed(rng, space: FiniteSpace, scalar: str):
    return measures.signed_measure(space, _random_values(rng, space.size, scalar), scalar)


def random_function(rng, space: FiniteSpace, scalar: str):
    return measures.bounded_function(space, _random_values(rng, space.size, scalar), scalar)


def random_kernel(rng, src: FiniteSpace, tgt: FiniteSpace, scalar: str,
                  allow_zero: bool = False):
    rows = np.array([random_prob_weights(rng, tgt.size, scalar, allow_zero)
                     for _ in range(src.size)])
    return kernels.finite_kernel(src, tgt, rows, scalar)


def random_map(rng, src: FiniteSpace, tgt: FiniteSpace):
    picks = rng.integers(0, tgt.size, size=src.size)
    return kernels.MeasurableMap(src, tgt,
                                 tuple(tgt.labels[int(i)] for i in picks))


def random_affine_map(rng, n_in: int, n_out: int,
                      min_noise: float = 0.1) -> gaussian.AffineGaussianMap:
    A = rng.normal(size=(n_out, n_in))
    b = rng.normal(size=n_out)
    root = rng.normal(size=(n_out, n_out)) * 0.5
    noise = root @ root.T + min_noise * np.eye(n_out)
    return gaussian.AffineGaussianMap(A, b, noise)


def random_gaussian(rng, dim: int, min_var: float = 0.1) -> gaussian.GaussianMeasure:
    root = rng.normal(size=(dim, dim)) * 0.5
    return gaussian.GaussianMeasure(rng.normal(size=dim),
                                    root @ root.T + min_var * np.eye(dim))


def _spaces3(rng, max_size=6):
    xs = random_space(rng, max_size, "x")
    ys = random_space(rng, max_size, "y")
    zs = random_space(rng, max_size, "z")
    return xs, ys, zs


def _trials(trial):
    """A law family from ``trial(rng, scalar, tol)``, a generator that runs
    one trial and yields ``(law, holds)`` or ``(law, holds, details)`` for
    each law it checks.  The family, called as ``(rng, trials, scalar,
    tol)``, runs the trial ``trials`` times and returns the record
    ``{"trial": i, "law": law, **details}`` of every law that did not hold."""
    @functools.wraps(trial)
    def family(rng, trials: int, scalar: str, tol: float) -> list:
        return [{"trial": i, "law": law, **dict(*details)}
                for i in range(trials)
                for law, holds, *details in trial(rng, scalar, tol)
                if not holds]

    del family.__wrapped__      # introspection shows the family's call
    return family


# ---------------------------------------------------------------------------
# finite category checks

@_trials
def check_composition_laws(rng, scalar: str, tol: float):
    """Associativity of composition, functoriality of pushforward,
    contravariance of pullback, and the pairing duality."""
    xs, ys, zs = _spaces3(rng)
    ws = random_space(rng, 6, "w")
    t1 = random_kernel(rng, xs, ys, scalar)
    t2 = random_kernel(rng, ys, zs, scalar)
    t3 = random_kernel(rng, zs, ws, scalar)
    left = kernels.compose(kernels.compose(t1, t2), t3)
    right = kernels.compose(t1, kernels.compose(t2, t3))
    yield "compose-associative", kernels.kernels_equal(left, right, tol)
    m = random_prob(rng, xs, scalar)
    via = kernels.pushforward(t2, kernels.pushforward(t1, m))
    direct = kernels.pushforward(kernels.compose(t1, t2), m)
    yield "pushforward-functorial", measures.measures_equal(direct, via, tol)
    g = random_function(rng, zs, scalar)
    back_via = kernels.pullback(t1, kernels.pullback(t2, g))
    back_direct = kernels.pullback(kernels.compose(t1, t2), g)
    yield "pullback-contravariant", measures.arrays_equal(
        back_direct.values, back_via.values, scalar, tol)
    one = measures._one_of(scalar)
    pulled = kernels.pullback(t1, measures.constant_function(ys, one, scalar))
    yield "pullback-unital", measures.arrays_equal(
        pulled.values, measures.constant_function(xs, one, scalar).values,
        scalar, tol)
    gy = random_function(rng, ys, scalar)
    mu = random_signed(rng, xs, scalar)
    lhs = measures.integrate(gy, kernels.pushforward(t1, mu))
    rhs = measures.integrate(kernels.pullback(t1, gy), mu)
    yield "pushforward-pullback-duality", (
        lhs == rhs if scalar == RATIONAL else abs(lhs - rhs) <= tol)
    tv_in = measures.tv_norm(mu)
    tv_out = measures.tv_norm(kernels.pushforward(t1, mu))
    yield "tv-contraction", (
        tv_out <= tv_in if scalar == RATIONAL else float(tv_out) <= float(tv_in) + tol)


@_trials
def check_graph_laws(rng, scalar: str, tol: float):
    """Marginals of a graph recover the kernel and the identity; graphs
    interact with composition and deterministic reparametrization the
    way block matrices say they must."""
    xs, ys, zs = _spaces3(rng, max_size=5)
    ws = random_space(rng, 5, "w")
    p1 = random_kernel(rng, xs, ys, scalar)
    gp1 = kernels.graph(p1)
    prod = gp1.target
    proj0 = kernels.dirac_kernel(kernels.projection_map(prod, 0), scalar)
    proj1 = kernels.dirac_kernel(kernels.projection_map(prod, 1), scalar)
    yield "graph-second-marginal", kernels.kernels_equal(
        kernels.compose(gp1, proj1), p1, tol)
    ident = kernels.identity_kernel(xs, scalar)
    yield "graph-first-marginal", kernels.kernels_equal(
        kernels.compose(gp1, proj0), ident, tol)
    p2 = random_kernel(rng, ys, zs, scalar)
    direct = kernels.graph(kernels.compose(p1, p2))
    chained = kernels.compose(
        gp1, kernels.product_kernel(ident, p2))
    yield "graph-composition", kernels.kernels_equal(direct, chained, tol)
    kappa = random_map(rng, ws, xs)
    dk = kernels.dirac_kernel(kappa, scalar)
    lhs = kernels.compose(
        kernels.graph(kernels.compose(dk, p1)),
        kernels.product_kernel(dk, kernels.identity_kernel(ys, scalar)))
    rhs = kernels.compose(dk, gp1)
    yield "graph-reparametrization", kernels.kernels_equal(lhs, rhs, tol)
    f = random_map(rng, xs, ys)
    g = random_map(rng, ys, zs)
    yield "deterministic-embedding-functorial", kernels.kernels_equal(
        kernels.dirac_kernel(kernels.map_compose(f, g), scalar),
        kernels.compose(kernels.dirac_kernel(f, scalar),
                        kernels.dirac_kernel(g, scalar)), tol)


@_trials
def check_disintegration(rng, scalar: str, tol: float):
    """Pushing the first marginal through the graph of the conditional
    reconstructs the joint, zero-mass rows included."""
    nx = int(rng.integers(1, 5))
    ny = int(rng.integers(1, 8 // nx + 1))
    xs = FiniteSpace(tuple(f"x{j}" for j in range(nx)))
    ys = FiniteSpace(tuple(f"y{j}" for j in range(ny)))
    prod = measures.product_space([xs, ys])
    mu = random_prob(rng, prod, scalar, allow_zero=True)
    cond = bayes.disintegrate(mu)
    rebuilt = kernels.pushforward(kernels.graph(cond),
                                  kernels.marginal(mu, 0))
    yield "disintegration-roundtrip", measures.measures_equal(rebuilt, mu, tol)


@_trials
def check_inversion(rng, scalar: str, tol: float):
    """The inversion identity, double inversion up to null sets, and
    stagewise inversion of a two-step chain."""
    thetas = random_space(rng, 4, "t")
    xs = random_space(rng, 4, "x")
    zs = random_space(rng, 4, "z")
    prior = random_prob(rng, thetas, scalar, allow_zero=True)
    p1 = random_kernel(rng, thetas, xs, scalar, allow_zero=True)
    model = bayes.BayesModel(prior=prior, sampling=p1)
    inv = bayes.bayes_invert(model)
    yield "inversion-identity", bayes.verify_inversion(model, inv.kernel, tol)
    pred = kernels.pushforward(p1, prior)
    back_model = bayes.BayesModel(
        prior=measures.prob_measure(xs, pred.weights),
        sampling=inv.kernel)
    back = bayes.bayes_invert(back_model)
    yield "double-inversion-ae", bayes.ae_equal(back.kernel, p1, prior, tol)
    p2 = random_kernel(rng, xs, zs, scalar, allow_zero=True)
    chained = bayes.invert_composition(model, p2)
    direct = bayes.bayes_invert(
        bayes.BayesModel(prior=prior,
                         sampling=kernels.compose(p1, p2))).kernel
    yield "composition-inversion", kernels.kernels_equal(chained, direct, tol)


@_trials
def check_ac_preservation(rng, scalar: str, tol: float):
    """Pushforward preserves absolute continuity, with the transported
    density reconstructing the transported measure."""
    xs, ys, _ = _spaces3(rng)
    muw = np.asarray(random_prob(rng, xs, scalar, allow_zero=True).weights)
    nuw = np.asarray(random_prob(rng, xs, scalar, allow_zero=True).weights)
    nuw = np.where(muw == 0, muw, nuw)              # force nu << mu
    if nuw.sum() == 0:
        nuw = muw
    mu = measures.measure(xs, muw, scalar)
    nu = measures.measure(xs, nuw, scalar)
    t = random_kernel(rng, xs, ys, scalar, allow_zero=True)
    tmu = kernels.pushforward(t, mu)
    tnu = kernels.pushforward(t, nu)
    try:
        dens = measures.radon_nikodym(tnu, tmu)
    except measures.NotAbsolutelyContinuousError:
        yield "ac-preserved", False
        return
    rebuilt = measures.signed_measure(ys, dens.values * tmu.weights, scalar)
    yield "density-reconstruction", measures.measures_equal(rebuilt, tnu, tol)


def batch_posterior(model, s) -> "supervised.InferenceResult":
    """The posterior read off the full Bayesian inversion of the
    labels^n sampling kernel at the observed label tuple.  Exponential in
    the number of pairs: the reference route for supervised.posterior."""
    sk = supervised.sampling_kernel(model, s.inputs)
    inv = bayes.bayes_invert(bayes.BayesModel(prior=model.prior, sampling=sk))
    obs = supervised._observation_label(s.outputs)
    if obs in inv.null_points:
        return supervised.InferenceResult(model.prior, True)
    return supervised.InferenceResult(inv.kernel.row(obs), False)


@_trials
def check_supervised(rng, scalar: str, tol: float):
    """The posterior equals batch inversion of the sampling kernel,
    sequential conditioning equals conditioning on all pairs at once, the
    posterior is order-insensitive, and unqueried inputs never matter."""
    thetas = random_space(rng, 5, "t")
    inputs = random_space(rng, 5, "a")
    labels = random_space(rng, 4, "y")
    prior = random_prob(rng, thetas, scalar)
    rows = np.array([[random_prob_weights(rng, labels.size, scalar)
                      for _ in range(inputs.size)] for _ in range(thetas.size)])
    model = supervised.SupervisedModel(prior, inputs, labels, rows)
    npairs = int(rng.integers(1, 5))
    pairs = tuple(
        (inputs.labels[int(rng.integers(0, inputs.size))],
         labels.labels[int(rng.integers(0, labels.size))])
        for _ in range(npairs))
    s_all = supervised.TrainingSet(pairs)
    cut = int(rng.integers(0, npairs + 1))
    s_a, s_b = supervised.TrainingSet(pairs[:cut]), supervised.TrainingSet(pairs[cut:])
    whole = supervised.posterior(model, s_all)
    oracle = batch_posterior(model, s_all)
    yield "posterior-batch-inversion", (
        whole.null_evidence == oracle.null_evidence
        and measures.measures_equal(whole.measure, oracle.measure, tol))
    stage1 = supervised.posterior(model, s_a)
    model2 = replace(model, prior=measures.prob_measure(thetas, stage1.measure.weights))
    stage2 = supervised.posterior(model2, s_b)
    yield "sequential-update", measures.measures_equal(whole.measure, stage2.measure, tol)
    perm = rng.permutation(npairs)
    shuffled = supervised.TrainingSet(tuple(pairs[int(j)] for j in perm))
    yield "posterior-exchangeable", measures.measures_equal(
        whole.measure, supervised.posterior(model, shuffled).measure, tol)
    t = supervised.TestInputs(tuple(
        inputs.labels[int(j)]
        for j in rng.integers(0, inputs.size, size=int(rng.integers(1, 3)))))
    yield "restriction-consistency", supervised.restriction_consistency(model, s_all, t, tol)


# ---------------------------------------------------------------------------
# Gaussian checks (float arithmetic by nature)

@_trials
def check_gaussian_algebra(rng, scalar: str, tol: float):
    """Composition associativity and pushforward functoriality for
    affine maps with Gaussian noise."""
    tol = max(tol, 1e-9)
    dims = [int(d) for d in rng.integers(1, 4, size=4)]
    t1 = random_affine_map(rng, dims[0], dims[1])
    t2 = random_affine_map(rng, dims[1], dims[2])
    t3 = random_affine_map(rng, dims[2], dims[3])
    left = gaussian.gauss_compose(gaussian.gauss_compose(t1, t2), t3)
    right = gaussian.gauss_compose(t1, gaussian.gauss_compose(t2, t3))
    yield "gauss-compose-associative", (
        np.allclose(left.A, right.A, atol=tol)
        and np.allclose(left.b, right.b, atol=tol)
        and np.allclose(left.noise, right.noise, atol=tol))
    g = random_gaussian(rng, dims[0])
    via = gaussian.gauss_pushforward(t2, gaussian.gauss_pushforward(t1, g))
    direct = gaussian.gauss_pushforward(gaussian.gauss_compose(t1, t2), g)
    yield "gauss-pushforward-functorial", gaussian.gaussians_equal(direct, via, tol)
    h = random_gaussian(rng, dims[1])
    co = gaussian.gauss_convolve(gaussian.gauss_pushforward(t1, g), h)
    oc = gaussian.gauss_convolve(h, gaussian.gauss_pushforward(t1, g))
    yield "gauss-convolve-commutative", gaussian.gaussians_equal(co, oc, tol)


@_trials
def check_gaussian_inversion(rng, scalar: str, tol: float):
    """Inverting an affine-Gaussian model reproduces the joint from the
    other direction, and inverting twice returns the model."""
    tol = max(tol, 1e-7)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    prior = random_gaussian(rng, n, min_var=0.3)
    t = random_affine_map(rng, n, m, min_noise=0.3)
    inv = gaussian.gauss_invert(t, prior)
    pred = gaussian.gauss_pushforward(t, prior)
    joint = gaussian.gauss_graph(t, prior)
    joint_back = gaussian.gauss_swap_blocks(
        gaussian.gauss_graph(inv, pred), m)
    yield "gauss-inversion-identity", gaussian.gaussians_equal(joint, joint_back, tol)
    back = gaussian.gauss_invert(inv, pred)
    yield "gauss-double-inversion", (
        np.allclose(back.A, t.A, atol=tol)
        and np.allclose(back.b, t.b, atol=tol)
        and np.allclose(back.noise, t.noise, atol=tol))


@_trials
def check_gp_two_route(rng, scalar: str, tol: float):
    """The closed-form GP posterior predictive equals generic
    conditioning of the joint Gaussian on the training outputs."""
    tol = max(tol, 1e-10)
    n = int(rng.integers(1, 11))
    m = int(rng.integers(1, 6))
    gp = supervised.GPModel(
        mean_fn=supervised.constant_mean(float(rng.normal())),
        cov_fn=supervised.squared_exponential(
            length_scale=float(rng.uniform(0.5, 2.0)),
            amplitude=float(rng.uniform(0.5, 2.0))),
        noise_var=float(rng.uniform(0.1, 1.0)))
    xs = rng.uniform(-3, 3, size=n)
    ts = rng.uniform(-3, 3, size=m)
    ys = np.sin(xs) + rng.normal(size=n) * 0.3
    s = supervised.TrainingSet(tuple(zip(xs.tolist(), ys.tolist())))
    t = supervised.TestInputs(tuple(ts.tolist()))
    direct = supervised.gp_posterior_predictive(gp, s, t)
    joint = supervised.gp_joint(gp, xs.tolist(), ts.tolist())
    routed = gaussian.gauss_condition(joint, m, ys)
    yield "gp-two-route", gaussian.gaussians_equal(direct, routed, tol)


@_trials
def check_gaussian_finite_bridge(rng, scalar: str, tol: float):
    """Exact 1-D Gaussian inversion against brute-force inversion of the
    discretized model (relative moment error at most 1e-3)."""
    # positive prior mean and a y above the predictive mean keep the
    # posterior moments bounded away from 0, so relative error is sane
    prior = gaussian.GaussianMeasure([float(rng.uniform(0.5, 1.5))],
                                     [[float(rng.uniform(0.5, 2.0))]])
    t = gaussian.AffineGaussianMap(
        [[float(rng.uniform(0.5, 1.5))]],
        [float(rng.uniform(-0.5, 0.5))],
        [[float(rng.uniform(0.25, 4.0))]])
    finite = gaussian.discretize_model(prior, t)
    pred = gaussian.gauss_pushforward(t, prior)
    y_wanted = float(pred.mean[0] + 1.1 * math.sqrt(pred.cov[0, 0]))
    obs_labels = np.asarray(finite.observations.labels)
    y = float(obs_labels[int(np.argmin(np.abs(obs_labels - y_wanted)))])
    inv_f = bayes.bayes_invert(finite).kernel.row(y)
    exact = gaussian.gauss_invert(t, prior).at([y])
    mean_f = float(measures.expectation(inv_f))
    var_f = float(measures.expectation(inv_f, lambda c: (c - mean_f) ** 2))
    rel = lambda a, b: abs(a - b) / max(abs(a), abs(b))
    moments = {"mean_finite": mean_f, "mean_exact": float(exact.mean[0]),
               "var_finite": var_f, "var_exact": float(exact.cov[0, 0])}
    # A NaN moment compares false, so it fails; JSON writes it as null.
    yield "gaussian-finite-bridge", (
        rel(mean_f, moments["mean_exact"]) <= 1e-3
        and rel(var_f, moments["var_exact"]) <= 1e-3), {
        k: v if math.isfinite(v) else None for k, v in moments.items()}


# ---------------------------------------------------------------------------
# registry and runner

# The counterexamples a report lists; num_failures counts them all.
FAILURES_REPORTED = 5


@dataclass
class CheckReport:
    name: str
    trials: int
    failures: list

    def to_jsonable(self) -> dict:
        return {"name": self.name,
                "trials": self.trials,
                "num_failures": len(self.failures),
                "failures": self.failures[:FAILURES_REPORTED]}


# (name, function, trial cap)
FINITE_CHECKS = [
    ("composition", check_composition_laws, None),
    ("graph", check_graph_laws, None),
    ("disintegration", check_disintegration, None),
    ("inversion", check_inversion, None),
    ("absolute-continuity", check_ac_preservation, None),
    ("supervised", check_supervised, None),
]

GAUSSIAN_CHECKS = [
    ("gaussian-algebra", check_gaussian_algebra, None),
    ("gaussian-inversion", check_gaussian_inversion, None),
    ("gp-two-route", check_gp_two_route, 20),
    ("gaussian-finite-bridge", check_gaussian_finite_bridge, 3),
]


def run_checks(seed: int, trials: int, backend: str = "both",
               tolerance: float = 1e-9) -> list:
    """Run every law family and return a list of CheckReport.  Each
    family draws from its own ``default_rng(seed)``."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise SchemaError(f"seed must be a non-negative integer, got {_clip(seed)}")
    if not (isinstance(trials, numbers.Integral) and trials >= 0):
        raise SchemaError(f"trials must be a non-negative integer, got {_clip(trials)}")
    if not (isinstance(tolerance, numbers.Real) and 0 <= tolerance < math.inf):
        raise SchemaError(f"tolerance must be a finite number >= 0, got {_clip(tolerance)}")
    if backend not in ("rational", "float", "both"):
        raise SchemaError(f"unknown backend {_clip(backend)}; "
                          "expected rational, float or both")
    scalars = [RATIONAL, FLOAT] if backend == "both" else [backend]
    runs = [(f"{name}[{scalar}]", fn, cap, scalar)
            for name, fn, cap in FINITE_CHECKS for scalar in scalars]
    runs += [(name, fn, cap, FLOAT) for name, fn, cap in GAUSSIAN_CHECKS]
    reports = []
    for name, fn, cap, scalar in runs:
        t = min(trials, cap) if cap else trials
        reports.append(CheckReport(
            name=name, trials=t,
            failures=fn(np.random.default_rng(seed), t, scalar, tolerance)))
    return reports
