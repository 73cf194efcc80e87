"""Affine-Gaussian algebra: closed forms, validation policy, and
cross-checks against the finite machinery on discretization grids."""

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import probmorph as pm
from probmorph import (
    AffineGaussianMap,
    GaussianMeasure,
    GridSpec,
    GridError,
    NotPSDError,
    SchemaError,
    SingularMatrixError,
    gauss_compose,
    gauss_condition,
    gauss_convolve,
    gauss_discretize,
    gauss_graph,
    gauss_invert,
    gauss_marginal,
    gauss_pushforward,
    gauss_swap_blocks,
    gaussians_equal,
)


def grid_moments(m):
    """Mean and covariance of a finite measure on numeric grid labels."""
    pts = np.asarray(m.space.labels, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    w = np.asarray(m.weights, dtype=np.float64)
    mean = w @ pts
    centered = pts - mean
    cov = (centered * w[:, None]).T @ centered
    return mean, cov


class TestCovarianceValidation:
    def test_visibly_asymmetric_matrices_are_rejected(self):
        with pytest.raises(NotPSDError):
            GaussianMeasure([0.0, 0.0], [[1.0, 0.2], [0.0, 1.0]])

    def test_roundoff_asymmetry_is_symmetrized(self):
        g = GaussianMeasure([0.0, 0.0], [[1.0, 0.1 + 1e-13], [0.1, 1.0]])
        assert np.array_equal(g.cov, g.cov.T)

    def test_tiny_negative_eigenvalues_are_clamped(self):
        g = GaussianMeasure([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0 - 1e-12]])
        assert np.linalg.eigvalsh(g.cov).min() >= 0.0

    def test_indefinite_matrices_are_rejected(self):
        with pytest.raises(NotPSDError):
            GaussianMeasure([0.0, 0.0], [[1.0, 1.01], [1.01, 1.0]])

    @pytest.mark.parametrize("cov", [[[1e6, 1.0], [0.0, 1e6]],
                                     [[1e6, 2e6], [2e6, 1e6]]])
    def test_tolerances_scale_but_large_defects_are_rejected(self, cov):
        with pytest.raises(NotPSDError):
            GaussianMeasure([0.0, 0.0], cov)
        g = GaussianMeasure([0.0, 0.0], [[1e6, 1e-5], [0.0, 1e6]])
        assert np.array_equal(g.cov, g.cov.T)

    def test_entries_near_the_float_maximum_do_not_overflow(self):
        # symmetrizing halves before adding: (a + a) / 2 overflows here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPSDError, match="eigenvalue"):
                GaussianMeasure([0, 0], [[1e308, 1.7e308], [1.7e308, 1e308]])
            g = GaussianMeasure([0, 0], [[1.5e308, 0.0], [0.0, 1.5e308]])
        assert g.cov.tolist() == [[1.5e308, 0.0], [0.0, 1.5e308]]

    def test_degenerate_zero_covariance_is_allowed(self):
        g = GaussianMeasure([2.0], [[0.0]])
        assert g.cov[0, 0] == 0.0

    def test_map_noise_gets_the_same_policy(self):
        with pytest.raises(NotPSDError):
            AffineGaussianMap([[1.0]], [0.0], [[-1.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["mean", "cov", "A", "b", "noise"])
    def test_non_finite_entries_are_refused(self, field, bad):
        args = {"mean": [0.0], "cov": [[1.0]], "A": [[1.0]], "b": [0.0],
                "noise": [[1.0]]}
        args[field] = np.full_like(np.asarray(args[field]), bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")           # refused, not warned about
            with pytest.raises(SchemaError, match="non-finite"):
                if field in ("mean", "cov"):
                    GaussianMeasure(args["mean"], args["cov"])
                else:
                    AffineGaussianMap(args["A"], args["b"], args["noise"])


    def test_caller_arrays_stay_writeable_and_unshared(self):
        mean, cov = np.array([1.0]), np.array([[2.0]])
        A, b = np.array([[1.0]]), np.array([0.0])
        g = GaussianMeasure(mean, cov)
        t = AffineGaussianMap(A, b, cov)
        for arr in (mean, cov, A, b):
            assert arr.flags.writeable
            arr[...] = 7.0
        assert g.mean[0] == 1.0 and g.cov[0, 0] == 2.0
        assert t.A[0, 0] == 1.0 and t.b[0] == 0.0 and t.noise[0, 0] == 2.0
        assert not g.mean.flags.writeable and not t.A.flags.writeable

    @pytest.mark.parametrize("mean, cov", [
        (["a"], [[1.0]]), (["0.5"], [[1.0]]), ([True], [[1.0]]),
        ([0.0], [[False]]), ([0.0, 1.0], [[1.0, 0.0], [0.0]]),
        ([None], [[1.0]]), (np.array([True]), [[1.0]]), ([10 ** 400], [[1.0]]),
    ])
    def test_non_numeric_or_ragged_input_is_a_schema_error(self, mean, cov):
        with pytest.raises(SchemaError):
            GaussianMeasure(mean, cov)
        with pytest.raises(SchemaError):
            AffineGaussianMap([[1.0]] * len(mean), mean, cov)

class TestClosedForms:
    def test_compose_hand_value(self):
        t1 = AffineGaussianMap([[2.0]], [1.0], [[1.0]])
        t2 = AffineGaussianMap([[3.0]], [-2.0], [[2.0]])
        c = gauss_compose(t1, t2)
        assert c.A[0, 0] == 6.0 and c.b[0] == 1.0 and c.noise[0, 0] == 11.0

    def test_pushforward_hand_value(self):
        t = AffineGaussianMap([[3.0]], [-1.0], [[0.0]])
        out = gauss_pushforward(t, GaussianMeasure([1.0], [[2.0]]))
        assert out.mean[0] == 2.0 and out.cov[0, 0] == 18.0

    def test_graph_hand_value(self):
        t = AffineGaussianMap([[1.0]], [0.0], [[1.0]])
        j = gauss_graph(t, GaussianMeasure([0.0], [[1.0]]))
        assert np.allclose(j.mean, [0.0, 0.0])
        assert np.allclose(j.cov, [[1.0, 1.0], [1.0, 2.0]])

    def test_graph_marginals(self):
        t = AffineGaussianMap([[2.0], [0.5]], [0.0, 1.0], np.eye(2) * 0.3)
        g = GaussianMeasure([1.0], [[0.7]])
        j = gauss_graph(t, g)
        assert gaussians_equal(gauss_marginal(j, [0]), g)
        assert gaussians_equal(gauss_marginal(j, [1, 2]),
                               gauss_pushforward(t, g))

    def test_convolve_hand_value(self):
        out = gauss_convolve(GaussianMeasure([1.0], [[2.0]]),
                             GaussianMeasure([3.0], [[4.0]]))
        assert out.mean[0] == 4.0 and out.cov[0, 0] == 6.0

    def test_pushforward_by_a_constant_map_is_a_point_mass(self):
        t = AffineGaussianMap([[0.0]], [5.0], [[0.0]])
        out = gauss_pushforward(t, GaussianMeasure([1.0], [[2.0]]))
        assert out.mean[0] == 5.0 and out.cov[0, 0] == 0.0


class TestInversion:
    def test_hand_value(self):
        prior = GaussianMeasure([0.0], [[1.0]])
        t = AffineGaussianMap([[1.0]], [0.0], [[1.0]])
        post = gauss_invert(t, prior).at([2.0])
        assert abs(post.mean[0] - 1.0) < 1e-12
        assert abs(post.cov[0, 0] - 0.5) < 1e-12

    def test_joint_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        from probmorph.laws import random_affine_map, random_gaussian
        prior = random_gaussian(rng, 2, min_var=0.3)
        t = random_affine_map(rng, 2, 3, min_noise=0.3)
        inv = gauss_invert(t, prior)
        pred = gauss_pushforward(t, prior)
        lhs = gauss_swap_blocks(gauss_graph(inv, pred), 3)
        rhs = gauss_graph(t, prior)
        assert gaussians_equal(lhs, rhs, tol=1e-9)

    def test_flat_prior_recovers_the_observation(self):
        # prior variance >> noise: the posterior follows the data
        prior = GaussianMeasure([0.0], [[1e6]])
        t = AffineGaussianMap([[1.0]], [0.0], [[1.0]])
        post = gauss_invert(t, prior).at([3.0])
        assert abs(post.mean[0] - 3.0) < 1e-3
        assert abs(post.cov[0, 0] - 1.0) < 1e-3

    def test_singular_predictive_covariance_raises_with_estimate(self):
        prior = GaussianMeasure([0.0], [[1.0]])
        t = AffineGaussianMap([[0.0]], [0.0], [[0.0]])
        with pytest.raises(SingularMatrixError) as exc:
            gauss_invert(t, prior)
        assert not math.isfinite(exc.value.condition)

    def test_uninformative_observation_leaves_the_prior_untouched(self):
        # A = 0 with a little noise: the predictive covariance is the noise
        prior = GaussianMeasure([0.5], [[1.0]])
        t = AffineGaussianMap([[0.0]], [0.0], [[1e-6]])
        post = gauss_invert(t, prior).at([0.0])
        assert gaussians_equal(post, prior)

    def test_ill_conditioned_cutoff_is_enforced(self):
        prior = GaussianMeasure([0.0, 0.0], np.diag([1.0, 1e-15]))
        t = AffineGaussianMap(np.eye(2), [0.0, 0.0], np.zeros((2, 2)))
        with pytest.raises(SingularMatrixError) as exc:
            gauss_invert(t, prior)
        assert exc.value.condition > 1e12


class TestConditioning:
    def test_schur_complement_hand_value(self):
        joint = GaussianMeasure([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
        post = gauss_condition(joint, 1, [3.0])
        assert abs(post.mean[0] - 1.5) < 1e-12
        assert abs(post.cov[0, 0] - 1.5) < 1e-12

    def test_agrees_with_model_inversion(self):
        prior = GaussianMeasure([0.7], [[1.3]])
        t = AffineGaussianMap([[1.4]], [-0.2], [[0.6]])
        joint = gauss_graph(t, prior)          # (input, output)
        y = [1.1]
        via_joint = gauss_condition(joint, 1, y)
        via_invert = gauss_invert(t, prior).at(y)
        assert gaussians_equal(via_joint, via_invert, tol=1e-10)


class TestDiscretize:
    def test_moments_recovered_on_a_fine_grid(self):
        g = GaussianMeasure([0.3], [[0.64]])
        m = gauss_discretize(g, GridSpec.around(0.3, 0.8))
        mean, cov = grid_moments(m)
        assert abs(mean[0] - 0.3) < 1e-6
        assert abs(cov[0, 0] - 0.64) / 0.64 < 1e-4

    def test_an_axis_may_have_max_grid_cells(self):
        assert GridSpec((0.0,), (1.0,), (1 / 4096,)).centers(0).size == 4096
        assert GridSpec.around(0.0, 1.0).centers(0).size == 1600    # the default

    def test_grid_that_misses_the_mass_is_rejected(self):
        g = GaussianMeasure([0.0], [[1.0]])
        with pytest.raises(GridError):
            gauss_discretize(g, GridSpec((-1.0,), (1.0,), (0.01,)))

    def test_coarse_step_is_rejected(self):
        g = GaussianMeasure([0.0], [[1.0]])
        with pytest.raises(GridError):
            gauss_discretize(g, GridSpec((-8.0,), (8.0,), (0.75,)))

    def test_strict_false_allows_partial_coverage(self):
        g = GaussianMeasure([0.0], [[1.0]])
        m = gauss_discretize(g, GridSpec((-1.0,), (1.0,), (0.01,)), strict=False)
        assert m.is_probability()

    def test_degenerate_covariance_cannot_be_discretized(self):
        with pytest.raises(GridError):
            gauss_discretize(GaussianMeasure([0.0], [[0.0]]),
                             GridSpec((-1.0,), (1.0,), (0.01,)), strict=False)

    def test_two_dimensional_moments_with_correlation(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        g = GaussianMeasure([0.0, 1.0], cov)
        grid = GridSpec.around([0.0, 1.0], [1.0, math.sqrt(0.5)],
                               half_width_sigmas=6.0, step_sigmas=0.05)
        m = gauss_discretize(g, grid)
        mean, got = grid_moments(m)
        assert np.max(np.abs(mean - g.mean)) < 1e-4
        assert np.max(np.abs(got - cov)) < 2e-3

    def test_product_structure_of_2d_grids_survives(self):
        g = GaussianMeasure([0.0, 0.0], np.eye(2))
        grid = GridSpec.around([0.0, 0.0], [1.0, 1.0], 5.0, 0.1)
        m = gauss_discretize(g, grid)
        assert m.space.factors is not None
        mx = pm.marginal(m, 0)
        mean, cov = grid_moments(mx)
        assert abs(mean[0]) < 1e-9 and abs(cov[0, 0] - 1.0) < 1e-3

    @staticmethod
    def quad_form_weights(g, grid):
        """The 2-D grid weights from the quadratic form of the inverse
        covariance, shifted by its minimum: an oracle that solves with the
        covariance where gauss_discretize whitens axis by axis."""
        c0, c1 = grid.centers(0), grid.centers(1)
        mesh = np.stack(np.meshgrid(c0, c1, indexing="ij"), axis=-1)
        diff = mesh.reshape(-1, 2) - g.mean
        sol = np.linalg.solve(g.cov, diff.T)
        quad = np.einsum("ij,ji->i", diff, sol)
        dens = np.exp(-0.5 * (quad - quad.min()))
        return dens / dens.sum()

    @pytest.mark.parametrize("half_width", [4.0, 6.0, 8.0])
    def test_two_axes_match_the_quadratic_form(self, half_width):
        rng = np.random.default_rng(int(half_width))
        for _ in range(10):
            sd = rng.uniform(0.1, 3.0, size=2)
            rho = rng.uniform(-0.95, 0.95)
            cov = np.outer(sd, sd) * np.array([[1.0, rho], [rho, 1.0]])
            g = GaussianMeasure(rng.normal(size=2) * 3.0, cov)
            grid = GridSpec.around(g.mean, sd, half_width, 0.05)
            m = gauss_discretize(g, grid)
            assert np.abs(m.weights - self.quad_form_weights(g, grid)).sum() <= 1e-12

    def test_two_axis_grid_that_catches_no_mass_is_refused_without_strict(self):
        g = GaussianMeasure([0.0, 0.0], np.eye(2))
        with pytest.raises(GridError, match="no probability mass"):
            gauss_discretize(g, GridSpec((50.0, 50.0), (51.0, 51.0), (0.01, 0.01)),
                             strict=False)


class TestFiniteOracles:
    """The closed forms against brute-force finite computation."""

    def test_convolution_against_lattice_convolution(self):
        g1 = GaussianMeasure([0.4], [[1.0]])
        g2 = GaussianMeasure([-0.1], [[1.0]])
        step = 1.0 / 25
        d1 = gauss_discretize(g1, GridSpec.around(0.4, 1.0, 6.0, step))
        d2 = gauss_discretize(g2, GridSpec.around(-0.1, 1.0, 6.0, step))
        lo1, lo2 = d1.space.labels[0], d2.space.labels[0]
        as_index = lambda m, lo: pm.measure(
            pm.FiniteSpace(tuple(range(m.space.size))), np.asarray(m.weights))
        conv = pm.convolve(as_index(d1, lo1), as_index(d2, lo2))
        # index k corresponds to the value lo1 + lo2 + k * step
        vals = lo1 + lo2 + np.asarray(conv.space.labels, dtype=np.float64) * step
        w = np.asarray(conv.weights)
        mean = float(w @ vals)
        var = float(w @ (vals - mean) ** 2)
        exact = gauss_convolve(g1, g2)
        assert abs(mean - exact.mean[0]) / abs(exact.mean[0]) < 1e-2
        assert abs(var - exact.cov[0, 0]) / exact.cov[0, 0] < 1e-3

    def test_inversion_against_discretized_model(self):
        prior = GaussianMeasure([1.0], [[1.0]])
        t = AffineGaussianMap([[1.0]], [0.0], [[1.0]])
        finite = pm.discretize_model(prior, t)
        labels = np.asarray(finite.sampling.target.labels)
        y = float(labels[int(np.argmin(np.abs(labels - 2.0)))])
        row = pm.bayes_invert(finite).kernel.row(y)
        mean, cov = grid_moments(row)
        exact = gauss_invert(t, prior).at([y])
        assert abs(mean[0] - exact.mean[0]) / abs(exact.mean[0]) < 1e-3
        assert abs(cov[0, 0] - exact.cov[0, 0]) / exact.cov[0, 0] < 1e-3

    def test_predictive_of_discretized_model_matches_closed_form(self):
        prior = GaussianMeasure([0.5], [[0.8]])
        t = AffineGaussianMap([[1.2]], [-0.3], [[0.5]])
        finite = pm.discretize_model(prior, t)
        pred_f = pm.predictive_measure(finite)
        mean, cov = grid_moments(pred_f)
        exact = gauss_pushforward(t, prior)
        assert abs(mean[0] - exact.mean[0]) < 1e-3
        assert abs(cov[0, 0] - exact.cov[0, 0]) / exact.cov[0, 0] < 1e-3


class TestGridRowsAndConditionEstimate:
    """discretize_model and the eigvalsh condition estimate against
    the per-row route and np.linalg.cond."""

    # (prior mean, prior covariance, A, b, noise variance)
    MODELS = [
        ([1.0], [[1.0]], [[1.0]], [0.0], 1.0), ([0.3], [[0.7]], [[1.3]], [-0.2], 0.4),
        ([-2.0], [[1.9]], [[-0.6]], [0.4], 3.0), ([0.0], [[0.5]], [[0.0]], [1.0], 0.25),
        ([-0.0], [[0.05]], [[2.5]], [-0.0], 0.05), ([40.0], [[9.0]], [[-1e-3]], [7.0], 0.1),
        ([0.0, 0.0], [[1.0, 0.6], [0.6, 2.0]], [[0.0, 1.0]], [0.0], 0.3),
        ([0.5, -1.0], [[0.8, -0.3], [-0.3, 0.4]], [[1.2, -0.7]], [0.25], 1.5)]

    # (half width, step) in sd by parameter dimension: a 2-D parameter at
    # +-8 sd in steps of 0.05 sd would have 320^2 x 320 kernel entries
    GRID = {1: (8.0, 0.05), 2: (4.0, 0.25)}

    @classmethod
    def bridge(cls, m, s, a, b, n, step=None):
        prior, t = GaussianMeasure(m, s), AffineGaussianMap(a, b, [[n]])
        half_width, default = cls.GRID[prior.dim]
        return prior, t, pm.discretize_model(prior, t, half_width, step or default)

    @pytest.mark.parametrize("m, s, a, b, n", MODELS)
    def test_rows_match_per_row_discretization(self, m, s, a, b, n):
        prior, t, finite = self.bridge(m, s, a, b, n)
        pred = gauss_pushforward(t, prior)
        ogrid = GridSpec.around(pred.mean[0], math.sqrt(pred.cov[0, 0]),
                                *self.GRID[prior.dim])
        rows = np.stack([gauss_discretize(t.at(np.atleast_1d(c)), ogrid, strict=False).weights
                         for c in finite.parameters.labels])
        if prior.dim == 1:
            assert np.array_equal(finite.sampling.rows, rows)
        else:       # t.at sums A x in a matmul, which may round the last bit apart
            assert np.allclose(finite.sampling.rows, rows, rtol=1e-12, atol=0.0)

    @staticmethod
    def one_axis_rows(centers, means, var):
        """The 1-D density rows written out op for op: the oracle that
        pins the bits of every 1-D grid."""
        z = centers - np.asarray(means)[..., None]
        z /= math.sqrt(var)
        rows = z * -0.5
        rows *= z
        np.exp(rows, out=rows)
        rows /= rows.sum(axis=-1)[..., None]
        return rows

    @pytest.mark.parametrize("step", [0.01, 0.04, 0.05])
    @pytest.mark.parametrize("m, s, a, b, n", MODELS[:6])
    def test_one_axis_bits_are_the_one_axis_formula(self, m, s, a, b, n, step):
        _, _, finite = self.bridge(m, s, a, b, n, step)
        cells = np.asarray(finite.parameters.labels)
        obs = np.asarray(finite.observations.labels)
        assert np.array_equal(finite.prior.weights, self.one_axis_rows(cells, m[0], s[0][0]))
        assert np.array_equal(finite.sampling.rows,
                              self.one_axis_rows(obs, a[0][0] * cells + b[0], n))

    def test_grid_arrays_reach_the_value_classes_without_a_copy(self, monkeypatch):
        made = []
        real = pm.gaussian._density_rows

        def recording(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(pm.gaussian, "_density_rows", recording)
        finite = pm.discretize_model(GaussianMeasure([0.3], [[0.7]]),
                                     AffineGaussianMap([[1.3]], [-0.2], [[0.4]]))
        assert finite.prior.weights is made[0]
        assert finite.sampling.rows is made[-1]
        assert made[-1].shape == (finite.parameters.size, finite.observations.size)

    def test_zero_noise_map_is_refused(self):
        prior = GaussianMeasure([0.0], [[1.0]])
        t = AffineGaussianMap([[1.0]], [0.0], [[0.0]])
        with pytest.raises(GridError, match="singular"):
            pm.discretize_model(prior, t)

    def test_a_two_dimensional_observation_is_refused(self):
        t = AffineGaussianMap([[1.0], [0.5]], [0.0, 0.0], np.eye(2))
        with pytest.raises(SchemaError, match="1-D observation"):
            pm.discretize_model(GaussianMeasure([0.0], [[1.0]]), t)

    def test_a_two_axis_prior_at_default_steps_is_refused_before_allocation(self):
        # 1,600^2 parameter cells times 1,600 observations; the prior
        # grid alone would take 20 MB
        prior = GaussianMeasure([0.0, 0.0], np.eye(2))
        t = AffineGaussianMap([[1.0, 1.0]], [0.0], [[1.0]])
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match="2560000 x 1600 cells, over the limit "
                                                  "of 16777216 entries"):
                pm.discretize_model(prior, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_condition_estimate_matches_svd_on_spd_matrices(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 30):
            for scale in (1e-3, 1.0, 1e6):
                B = rng.normal(size=(n, n))
                K = B @ B.T + scale * np.eye(n)
                est = pm.gaussian._condition(K)
                assert est == pytest.approx(np.linalg.cond(K), rel=1e-9)

    def test_exactly_singular_matrix_reads_infinite(self):
        assert pm.gaussian._condition(np.ones((2, 2))) == math.inf

    @staticmethod
    def unscaled_condition(K):
        """The estimate before the power-of-two scaling, as an oracle."""
        mags = np.abs(np.linalg.eigvalsh(K))
        lo = float(mags.min())
        return math.inf if lo == 0.0 else float(mags.max()) / lo

    @pytest.mark.parametrize("seed", [1, 7, 301])
    def test_scaling_keeps_the_estimate_of_benchmark_matrices(self, seed, tmp_path,
                                                              monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import workloads
        w = workloads.GpRegression(seed, tmp_path)
        gp = pm.serialize.gp_model_from_jsonable(w.config)
        C = pm.supervised._gp_blocks(gp, w.train_x.tolist(), w.test_x.tolist())[-1]
        assert pm.gaussian._condition(C) == self.unscaled_condition(C)

    def test_well_conditioned_matrix_near_the_float_maximum(self):
        # eigvalsh of C itself overflows; C / 2^e has the same ratio
        K = np.array([[1.44e308, 1.2e308], [1.2e308, 1.44e308]])
        assert self.unscaled_condition(K) == math.inf
        assert pm.gaussian._condition(K) == pytest.approx(11.0, rel=1e-12)
