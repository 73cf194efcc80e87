"""The law-suite runner: one trial per family, its failure records, and
the refusals of ``run_checks``."""

import inspect
import math

import numpy as np
import pytest

from probmorph import gaussian, laws, measures
from probmorph.errors import NotAbsolutelyContinuousError, SchemaError
from probmorph.measures import FLOAT, RATIONAL

FAMILIES = [fn for _, fn, _ in laws.FINITE_CHECKS + laws.GAUSSIAN_CHECKS]


@pytest.mark.parametrize("fn", FAMILIES, ids=lambda fn: fn.__name__)
def test_every_family_keeps_its_name_docstring_and_call(fn):
    assert fn.__name__.startswith("check_")
    assert getattr(laws, fn.__name__) is fn
    assert fn.__doc__
    assert list(inspect.signature(fn).parameters) == ["rng", "trials", "scalar", "tol"]


def test_records_carry_the_trial_index_and_details_of_each_failed_law():
    @laws._trials
    def trial(rng, scalar, tol):
        k = int(rng.integers(0, 3))
        yield "first", k != 0
        yield "second", np.bool_(k == 2), {"k": k, "scalar": scalar}

    draws = np.random.default_rng(8).integers(0, 3, size=12).tolist()
    expected = []
    for i, k in enumerate(draws):
        if k == 0:
            expected.append({"trial": i, "law": "first"})
        if k != 2:
            expected.append({"trial": i, "law": "second", "k": k, "scalar": FLOAT})
    assert trial(np.random.default_rng(8), 12, FLOAT, 0.0) == expected
    assert trial(np.random.default_rng(8), 0, FLOAT, 0.0) == []


@pytest.mark.parametrize("scalar", [RATIONAL, FLOAT])
def test_a_pushforward_that_breaks_absolute_continuity_stops_its_trial(
        monkeypatch, scalar):
    def refuse(nu, mu):
        raise NotAbsolutelyContinuousError(nu.space.labels[0])

    monkeypatch.setattr(measures, "radon_nikodym", refuse)
    bad = laws.check_ac_preservation(np.random.default_rng(0), 7, scalar, 1e-9)
    assert bad == [{"trial": i, "law": "ac-preserved"} for i in range(7)]


def test_a_failed_bridge_records_both_moments(monkeypatch):
    real = gaussian.gauss_invert

    def shifted(t, prior):
        inv = real(t, prior)
        return gaussian.AffineGaussianMap(inv.A, inv.b + 0.5, inv.noise)

    monkeypatch.setattr(gaussian, "gauss_invert", shifted)
    bad = laws.check_gaussian_finite_bridge(np.random.default_rng(2), 2, FLOAT, 1e-9)
    assert [(r["trial"], r["law"]) for r in bad] == [
        (0, "gaussian-finite-bridge"), (1, "gaussian-finite-bridge")]
    for r in bad:
        assert list(r) == ["trial", "law", "mean_finite", "mean_exact",
                           "var_finite", "var_exact"]
        assert r["mean_exact"] - r["mean_finite"] == pytest.approx(0.5, abs=1e-3)
        assert r["var_exact"] == pytest.approx(r["var_finite"], rel=1e-3)


def test_each_run_draws_from_its_own_generator_under_its_cap(monkeypatch):
    calls = []

    def family(rng, trials, scalar, tol):
        calls.append((int(rng.integers(0, 2 ** 30)), trials, scalar, tol))
        return []

    monkeypatch.setattr(laws, "FINITE_CHECKS", [("f", family, None)])
    monkeypatch.setattr(laws, "GAUSSIAN_CHECKS", [("g", family, 2), ("h", family, 9)])
    reports = laws.run_checks(seed=5, trials=4, backend="both", tolerance=0.5)
    first = int(np.random.default_rng(5).integers(0, 2 ** 30))
    assert [(r.name, r.trials) for r in reports] == [
        ("f[rational]", 4), ("f[float]", 4), ("g", 2), ("h", 4)]
    assert calls == [(first, 4, RATIONAL, 0.5), (first, 4, FLOAT, 0.5),
                     (first, 2, FLOAT, 0.5), (first, 4, FLOAT, 0.5)]


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ({"trials": "3"}, "trials must be a non-negative integer, got '3'"),
    ({"tolerance": math.nan}, "tolerance must be a finite number >= 0, got nan"),
    ({"tolerance": "0"}, "tolerance must be a finite number >= 0, got '0'"),
    ({"backend": "x"}, "unknown backend 'x'; expected rational, float or both"),
])
def test_bad_arguments_are_refused_before_any_family_runs(monkeypatch, kwargs, message):
    def never(*args):
        raise AssertionError("a family ran")

    monkeypatch.setattr(laws, "FINITE_CHECKS", [("f", never, None)])
    monkeypatch.setattr(laws, "GAUSSIAN_CHECKS", [("g", never, None)])
    with pytest.raises(SchemaError) as info:
        laws.run_checks(**{"seed": 0, "trials": 1, **kwargs})
    assert str(info.value) == message
