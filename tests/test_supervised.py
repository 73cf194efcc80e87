"""Supervised models: conditioning on labeled pairs, prediction, and
the Gaussian-process pipeline with its finite cross-check."""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

import probmorph as pm
from probmorph import (
    FiniteSpace,
    GPModel,
    SchemaError,
    SupervisedModel,
    TestInputs,
    TrainingSet,
    constant_mean,
    finite_kernel,
    gauss_condition,
    gp_joint,
    gp_posterior_predictive,
    label_marginals,
    posterior,
    predictive,
    prob_measure,
    restriction_consistency,
    sampling_kernel,
    squared_exponential,
    zero_mean,
)
from probmorph.laws import batch_posterior, random_kernel, random_prob, random_space

TH = FiniteSpace(("t1", "t2"))
INPUTS = FiniteSpace(("a", "b"))
LABELS = FiniteSpace((0, 1))

# two Bernoulli labelers: one strongly input-dependent, one fair coin
H1 = finite_kernel(INPUTS, LABELS, [[F(9, 10), F(1, 10)],
                                    [F(1, 10), F(9, 10)]])
H2 = finite_kernel(INPUTS, LABELS, [[F(1, 2), F(1, 2)],
                                    [F(1, 2), F(1, 2)]])


def model_of(prior, *kernels):
    """The model whose rows at hypothesis i are the rows of kernels[i]."""
    return SupervisedModel(prior, kernels[0].source, kernels[0].target,
                           np.stack([k.rows for k in kernels]))


MODEL = model_of(prob_measure(TH, [F(1, 2), F(1, 2)]), H1, H2)


class TestModelValidation:
    def test_one_supervisor_per_hypothesis(self):
        with pytest.raises(SchemaError):
            model_of(MODEL.prior, H1)

    def test_supervisors_share_spaces(self):
        # One array cannot hold rows over two input spaces: rows over a
        # one-point input space do not fit the model's two inputs.
        other = finite_kernel(FiniteSpace(("a",)), LABELS, [[F(1), F(0)]])
        with pytest.raises(SchemaError,
                           match=r"expected rows of shape \(2, 2, 2\), got \(2, 1, 2\)"):
            SupervisedModel(MODEL.prior, INPUTS, LABELS,
                            np.stack([other.rows, other.rows]))

    def test_test_inputs_must_be_nonempty(self):
        with pytest.raises(SchemaError):
            TestInputs(())


P_FLOAT = prob_measure(TH, [0.5, 0.5])


class TestArrayModel:
    """The model is one (hypothesis, input, label) array, coerced and
    validated once by the constructor."""

    def test_rows_of_the_wrong_shape_are_refused(self):
        with pytest.raises(SchemaError,
                           match=r"^expected rows of shape \(2, 2, 2\), got \(2, 2, 3\)$"):
            SupervisedModel(MODEL.prior, INPUTS, LABELS, [[["1/3"] * 3] * 2] * 2)

    def test_a_negative_entry_is_refused_naming_its_row(self):
        rows = [[["1", "0"], ["1", "0"]], [["1", "0"], ["11/10", "-1/10"]]]
        with pytest.raises(SchemaError,
                           match=r"^negative weight -1/10 in a supervisor at row \(1, 1\)$"):
            SupervisedModel(MODEL.prior, INPUTS, LABELS, rows)
        rows = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.1, -0.1]]]
        with pytest.raises(SchemaError,
                           match=r"^negative weight -0.1 in a supervisor at row \(1, 1\)$"):
            SupervisedModel(P_FLOAT, INPUTS, LABELS, rows)

    def test_a_row_off_one_names_its_hypothesis_and_input(self):
        rows = [[["1", "0"], ["1", "0"]], [["9/10", "0"], ["1/2", "0"]]]
        with pytest.raises(SchemaError, match=r"^rational supervisor rows must sum to 1, "
                                              r"got 9/10 at row \(1, 0\)$"):
            SupervisedModel(MODEL.prior, INPUTS, LABELS, rows)
        rows = [[[1.0, 0.0], [1.0, 0.0]], [[0.9, 0.0], [0.5, 0.0]]]
        with pytest.raises(SchemaError, match=r"^float supervisor rows must sum to 1, off by "
                                              r"0\.1 \(tolerance 1e-09\) at row \(1, 0\)$"):
            SupervisedModel(P_FLOAT, INPUTS, LABELS, rows)

    def test_tiny_float_negatives_are_clamped(self):
        rows = np.array([[[1.0, 0.0], [0.5, 0.5]],
                         [[1.0, -1e-12], [-5e-13, 1.0]]])
        model = SupervisedModel(P_FLOAT, INPUTS, LABELS, rows)
        assert model.rows.tolist() == [[[1.0, 0.0], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]]
        rows[1, 0, 1] = -2e-12
        with pytest.raises(SchemaError, match=r"negative weight -2e-12 .* at row \(1, 0\)"):
            SupervisedModel(P_FLOAT, INPUTS, LABELS, rows)

    def test_tiny_float_negatives_in_the_prior_are_clamped(self):
        rows = np.full((2, 2, 2), 0.5)
        prior = pm.signed_measure(TH, [1.0000000000001, -1e-13])
        model = SupervisedModel(prior, INPUTS, LABELS, rows)
        assert model.prior.weights.tolist() == [1.0000000000001, 0.0]
        with pytest.raises(SchemaError, match=r"^negative weight -2e-12 in a prior$"):
            SupervisedModel(pm.signed_measure(TH, [1.0, -2e-12]), INPUTS, LABELS, rows)

    def test_a_float_prior_with_rational_rows_is_a_backend_mismatch(self):
        with pytest.raises(pm.BackendMismatchError,
                           match=r"mixed scalar backends \['float', 'rational'\]"):
            SupervisedModel(P_FLOAT, INPUTS, LABELS, MODEL.rows)

    def test_restrict_inputs_slices_the_rows(self):
        for model in (MODEL, MODEL.as_float()):
            for keep, idx in ((("b",), [1]), (("b", "a"), [1, 0])):
                small = pm.restrict_inputs(model, keep)
                assert small.inputs.labels == keep and small.labels == LABELS
                assert small.rows.dtype == model.rows.dtype
                assert small.rows.tolist() == model.rows[:, idx].tolist()

    def test_as_float_is_the_per_kernel_conversion(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            model, _ = _random_rational_model(rng)
            # each hypothesis' table converted on its own, entry by entry
            want = np.stack([np.array([[float(v) for v in row] for row in table])
                             for table in model.rows])
            got = model.as_float().rows
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_rows_are_frozen_and_not_the_callers_array(self):
        mine = np.array([[[0.25, 0.75], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]]])
        model = SupervisedModel(P_FLOAT, INPUTS, LABELS, mine)
        assert not model.rows.flags.writeable
        assert not np.shares_memory(model.rows, mine)
        mine[0, 0] = [0.0, 1.0]
        assert mine.flags.writeable
        assert model.rows[0, 0].tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            model.rows[0, 0, 0] = 1.0


class TestSamplingKernel:
    def test_single_input_rows_are_supervisor_rows(self):
        sk = sampling_kernel(MODEL, ["a"])
        assert sk.target == LABELS
        assert list(sk.rows[0]) == [F(9, 10), F(1, 10)]
        assert list(sk.rows[1]) == [F(1, 2), F(1, 2)]

    def test_repeated_input_squares_the_row(self):
        sk = sampling_kernel(MODEL, ["a", "a"])
        assert list(sk.rows[1]) == [F(1, 4)] * 4     # fair coin twice

    def test_rows_are_products_across_distinct_inputs(self):
        sk = sampling_kernel(MODEL, ["a", "b"])
        # strongly input-dependent labeler: P(y_a=0, y_b=1) = 0.9 * 0.9
        assert sk.rows[0][sk.target.index((0, 1))] == F(81, 100)

    def test_unknown_input_is_rejected(self):
        with pytest.raises(SchemaError):
            sampling_kernel(MODEL, ["c"])

    def test_rows_equal_the_product_measure_route(self):
        rng = np.random.default_rng(11)
        for scalar in ("rational", "float"):
            for _ in range(5):
                model, _ = _random_rational_model(rng)
                if scalar == "float":
                    model = model.as_float()
                xs = [model.inputs.labels[int(i)] for i in rng.integers(model.inputs.size, size=3)]
                sk = sampling_kernel(model, xs)
                for k, row in zip(model.rows, sk.rows):
                    want = pm.product_measure(
                        [pm.FiniteMeasure(model.labels, k[model.inputs.index(x)])
                         for x in xs]).weights
                    assert want.dtype == row.dtype
                    assert list(want) == list(row)


class TestPosterior:
    def test_empty_training_set_returns_the_prior(self):
        res = posterior(MODEL, TrainingSet(()))
        assert res.measure is MODEL.prior
        assert not res.null_evidence

    def test_hand_value_one_observation(self):
        res = posterior(MODEL, TrainingSet((("a", 1),)))
        assert list(res.measure.weights) == [F(1, 6), F(5, 6)]
        assert not res.null_evidence

    def test_identical_supervisors_are_uninformative(self):
        model = model_of(prob_measure(TH, [F(1, 3), F(2, 3)]), H2, H2)
        res = posterior(model, TrainingSet((("a", 1), ("b", 0))))
        assert pm.measures_equal(res.measure, model.prior)

    def test_impossible_evidence_flags_and_returns_prior(self):
        sure = finite_kernel(INPUTS, LABELS, [[F(1), F(0)], [F(1), F(0)]])
        model = model_of(prob_measure(TH, [F(1, 2), F(1, 2)]), sure, sure)
        res = posterior(model, TrainingSet((("a", 1),)))
        assert res.null_evidence
        assert pm.measures_equal(res.measure, model.prior)

    def test_unknown_label_is_refused_before_the_sampling_kernel(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampling_kernel built for a bad label")

        monkeypatch.setattr(pm.supervised, "sampling_kernel", never)
        pairs = (("a", 1), ("b", 7), ("a", 0))
        with pytest.raises(SchemaError, match=r"observed labels \(1, 7, 0\) outside"):
            posterior(MODEL, TrainingSet(pairs))
        with pytest.raises(SchemaError, match="observed labels 7 outside"):
            posterior(MODEL, TrainingSet((("a", 7),)))

    def test_label_error_names_the_first_bad_pair_briefly(self):
        pairs = tuple(("ab"[i % 2], i % 2) for i in range(3000)) + (("a", 7), ("b", 9))
        with pytest.raises(SchemaError) as info:
            posterior(MODEL, TrainingSet(pairs))
        msg = str(info.value)
        assert "pair 3000 has label 7" in msg
        assert len(msg) < 200

    def test_sequential_equals_batch(self):
        s_all = TrainingSet((("a", 1), ("b", 0), ("a", 0)))
        batch = posterior(MODEL, s_all)
        step1 = posterior(MODEL, TrainingSet(s_all.pairs[:1]))
        model2 = SupervisedModel(prob_measure(TH, step1.measure.weights),
                                 MODEL.inputs, MODEL.labels, MODEL.rows)
        step2 = posterior(model2, TrainingSet(s_all.pairs[1:]))
        assert pm.measures_equal(batch.measure, step2.measure)

    def test_posterior_is_order_insensitive(self):
        pairs = (("a", 1), ("b", 0), ("a", 0), ("b", 1))
        fwd = posterior(MODEL, TrainingSet(pairs))
        rev = posterior(MODEL, TrainingSet(pairs[::-1]))
        assert pm.measures_equal(fwd.measure, rev.measure)

    def test_unknown_input_is_refused_like_the_sampling_kernel(self):
        with pytest.raises(SchemaError, match="input 'c' not in the model's input space"):
            posterior(MODEL, TrainingSet((("a", 1), ("c", 0))))

    def test_no_sampling_kernel_is_built(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("posterior built a sampling kernel")

        monkeypatch.setattr(pm.supervised, "sampling_kernel", never)
        res = posterior(MODEL, TrainingSet((("a", 1),)))
        assert list(res.measure.weights) == [F(1, 6), F(5, 6)]


def _random_rational_model(rng):
    thetas = random_space(rng, 5, "t")
    inputs = random_space(rng, 4, "a")
    labels = random_space(rng, 3, "y")
    prior = random_prob(rng, thetas, "rational", allow_zero=True)
    sup = tuple(random_kernel(rng, inputs, labels, "rational", allow_zero=True)
                for _ in range(thetas.size))
    model = model_of(prior, *sup)
    pairs = tuple((inputs.labels[int(rng.integers(inputs.size))],
                   labels.labels[int(rng.integers(labels.size))])
                  for _ in range(int(rng.integers(1, 5))))
    return model, TrainingSet(pairs)


class TestAgainstBatchInversion:
    """posterior is prior x likelihood, normalized; the oracle inverts
    the whole labels^n sampling kernel and reads the observed row."""

    def test_random_rational_models_agree_exactly(self):
        rng = np.random.default_rng(2024)
        nulls = 0
        for _ in range(50):
            model, s = _random_rational_model(rng)
            got, want = posterior(model, s), batch_posterior(model, s)
            assert got.null_evidence == want.null_evidence
            assert list(got.measure.weights) == list(want.measure.weights)
            assert got.measure.space == want.measure.space
            nulls += got.null_evidence
        assert 0 < nulls < 50        # both branches are exercised

    def test_random_float_models_agree_within_1e_12(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            model, s = _random_rational_model(rng)
            fmodel = model.as_float()
            got, want = posterior(fmodel, s), batch_posterior(fmodel, s)
            assert got.measure.scalar == "float"
            assert got.null_evidence == want.null_evidence
            assert pm.measures_equal(got.measure, want.measure, 1e-12)

    def test_thirty_pairs_take_milliseconds_and_match_the_hand_product(self):
        rng = np.random.default_rng(30)
        thetas = FiniteSpace(("t0", "t1", "t2", "t3"))
        inputs = FiniteSpace(("a", "b", "c"))
        labels = FiniteSpace((0, 1, 2))
        prior = random_prob(rng, thetas, "rational")
        sup = tuple(random_kernel(rng, inputs, labels, "rational")
                    for _ in range(thetas.size))
        model = model_of(prior, *sup)
        pairs = tuple((inputs.labels[int(rng.integers(3))], int(rng.integers(3)))
                      for _ in range(30))
        s = TrainingSet(pairs)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            res = posterior(model, s)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.05            # the batch route needs 3**30 columns
        joint = []
        for i, k in enumerate(sup):
            w = prior.weights[i]
            for x, y in pairs:
                w *= k.rows[inputs.index(x), labels.index(y)]
            joint.append(w)
        assert not res.null_evidence
        assert list(res.measure.weights) == [w / sum(joint) for w in joint]

    def test_long_float_training_set_does_not_underflow(self):
        # the likelihood of the pairs is about e**-1346 (1e-585) under the
        # likelier hypothesis, far below the smallest float
        p = {"t1": (0.3, 0.7), "t2": (0.4, 0.6)}
        sup = tuple(finite_kernel(INPUTS, LABELS, [list(p[t]), list(p[t])])
                    for t in TH.labels)
        model = model_of(prob_measure(TH, [0.5, 0.5]), *sup)
        pairs = tuple(("a" if i % 2 else "b", int(i % 5 < 3)) for i in range(2000))
        res = posterior(model, TrainingSet(pairs))
        assert not res.null_evidence
        logs = [sum(math.log(p[t][y]) for _, y in pairs) for t in TH.labels]
        top = max(logs)
        want = [math.exp(v - top) for v in logs]
        want = [w / sum(want) for w in want]
        assert res.measure.weights.tolist() == pytest.approx(want, rel=1e-9)
        assert 0.0 < min(res.measure.weights)


class TestPredictive:
    def test_hand_value(self):
        res = predictive(MODEL, TrainingSet((("a", 1),)), TestInputs(("b",)))
        assert res.measure.space == LABELS
        assert res.measure.weight(1) == F(17, 30)
        assert res.measure.weight(0) == F(13, 30)

    def test_single_hypothesis_predicts_its_own_rows(self):
        single = model_of(prob_measure(FiniteSpace(("t",)), [F(1)]), H1)
        res = predictive(single, TrainingSet(()), TestInputs(("a", "b")))
        sk = sampling_kernel(single, ["a", "b"])
        assert list(res.measure.weights) == list(sk.rows[0])

    def test_empty_training_gives_the_prior_predictive(self):
        res = predictive(MODEL, TrainingSet(()), TestInputs(("a",)))
        want = pm.pushforward(sampling_kernel(MODEL, ["a"]), MODEL.prior)
        assert pm.measures_equal(res.measure, want)

    def test_joint_marginals_sum_out_correctly(self):
        res = predictive(MODEL, TrainingSet((("a", 1),)), TestInputs(("a", "b")))
        margs = label_marginals(res.measure)
        assert len(margs) == 2
        only_b = predictive(MODEL, TrainingSet((("a", 1),)), TestInputs(("b",)))
        assert pm.measures_equal(margs[1], only_b.measure)

    def test_a_joint_on_a_plain_space_is_its_own_marginal(self):
        res = predictive(MODEL, TrainingSet((("a", 1),)), TestInputs(("b",)))
        assert res.measure.space.factors is None
        assert label_marginals(res.measure) == (res.measure,)

    def test_float_rows_at_the_tolerance_predict_at_two_points(self):
        # each row sums to 1 + 9e-10, inside PROB_SUM_TOL; a product of
        # two such rows sums to 1 + 1.8e-9, outside it
        h = finite_kernel(INPUTS, LABELS, [[0.5 + 0.9e-9, 0.5], [0.25 + 0.9e-9, 0.75]])
        model = model_of(prob_measure(FiniteSpace(("t",)), [1.0]), h)
        res = predictive(model, TrainingSet(()), TestInputs(("a", "b")))
        want = [a * b for a in h.rows[0] for b in h.rows[1]]
        assert list(res.measure.weights) == want

    def test_joints_over_the_size_limit_are_refused_before_building(self, monkeypatch):
        three = FiniteSpace((0, 1, 2))
        h = finite_kernel(INPUTS, three, [["1/3"] * 3, ["1/2", "1/4", "1/4"]])
        model = model_of(prob_measure(TH, [F(1, 2), F(1, 2)]), h, h)

        def never(*args, **kwargs):
            raise AssertionError("the product space was built")

        monkeypatch.setattr(pm.supervised, "product_space", never)
        limit = pm.supervised.MAX_JOINT_ENTRIES
        points = ("a",) * 21              # 2 x 3^21 is about 2.1e10 entries
        with pytest.raises(SchemaError, match=rf"2 x 3\^21 entries, over the limit of {limit}"):
            predictive(model, TrainingSet(()), TestInputs(points))

    def test_the_limit_itself_is_allowed(self, monkeypatch):
        monkeypatch.setattr(pm.supervised, "MAX_JOINT_ENTRIES", 16)
        assert sampling_kernel(MODEL, ("a", "b", "a")).rows.size == 2 * 2 ** 3
        with pytest.raises(SchemaError, match=r"2 x 2\^4 entries, over the limit of 16"):
            sampling_kernel(MODEL, ("a", "b", "a", "b"))

    def test_null_evidence_propagates(self):
        sure = finite_kernel(INPUTS, LABELS, [[F(1), F(0)], [F(1), F(0)]])
        model = model_of(prob_measure(TH, [F(1, 2), F(1, 2)]), sure, sure)
        res = predictive(model, TrainingSet((("a", 1),)), TestInputs(("b",)))
        assert res.null_evidence


class TestRestriction:
    def test_no_restriction_is_trivially_consistent(self):
        s = TrainingSet((("a", 1), ("b", 0)))
        assert restriction_consistency(MODEL, s, TestInputs(("a", "b")))

    def test_unqueried_inputs_never_matter(self):
        big = FiniteSpace(("a", "b", "c", "d", "e"))
        rng = np.random.default_rng(11)
        from probmorph.laws import random_kernel
        sup = tuple(random_kernel(rng, big, LABELS, "rational")
                    for _ in range(2))
        model = model_of(prob_measure(TH, [F(2, 5), F(3, 5)]), *sup)
        s = TrainingSet((("b", 1),))
        t = TestInputs(("d",))
        assert restriction_consistency(model, s, t)
        small = pm.restrict_inputs(model, ("b", "d"))
        assert small.inputs.labels == ("b", "d")
        assert pm.measures_equal(posterior(small, s).measure,
                                 posterior(model, s).measure)


class TestGPRegression:
    GP = GPModel(mean_fn=zero_mean(),
                 cov_fn=squared_exponential(1.0, 1.0),
                 noise_var=1.0)

    def test_joint_blocks_put_test_first_and_noise_on_training(self):
        j = gp_joint(self.GP, [0.0], [0.7])
        k = math.exp(-0.7 ** 2 / 2)
        assert np.allclose(j.cov, [[1.0, k], [k, 2.0]])
        assert np.allclose(j.mean, [0.0, 0.0])

    def test_hand_value(self):
        pred = gp_posterior_predictive(self.GP, TrainingSet(((0.0, 1.0),)),
                                       TestInputs((0.0,)))
        assert abs(pred.mean[0] - 0.5) < 1e-12
        assert abs(pred.cov[0, 0] - 0.5) < 1e-12

    def test_noiseless_gp_interpolates_exactly(self):
        gp = GPModel(zero_mean(), squared_exponential(1.0, 1.0), 0.0)
        pred = gp_posterior_predictive(gp, TrainingSet(((0.3, 2.0),)),
                                       TestInputs((0.3,)))
        assert abs(pred.mean[0] - 2.0) < 1e-12
        assert abs(pred.cov[0, 0]) < 1e-12

    def test_constant_mean_shifts_the_prior_predictive(self):
        gp = GPModel(constant_mean(5.0), squared_exponential(1.0, 1.0), 0.5)
        pred = gp_posterior_predictive(gp, TrainingSet(((0.0, 5.0),)),
                                       TestInputs((100.0,)))
        # far from the data the prediction falls back to the mean fn
        assert abs(pred.mean[0] - 5.0) < 1e-6

    def test_two_routes_agree(self):
        xs = [0.0, 0.5, 1.3]
        ys = [1.0, 0.2, -0.4]
        ts = [0.25, 2.0]
        direct = gp_posterior_predictive(
            self.GP, TrainingSet(tuple(zip(xs, ys))), TestInputs(tuple(ts)))
        routed = gauss_condition(gp_joint(self.GP, xs, ts), len(ts), ys)
        assert pm.gaussians_equal(direct, routed, tol=1e-12)

    def test_duplicate_noiseless_training_points_raise(self):
        gp = GPModel(zero_mean(), squared_exponential(1.0, 1.0), 0.0)
        s = TrainingSet(((0.0, 1.0), (0.0, 1.0)))
        with pytest.raises(pm.SingularMatrixError):
            gp_posterior_predictive(gp, s, TestInputs((0.5,)))
        # explicit jitter makes the solve go through
        pred = gp_posterior_predictive(gp, s, TestInputs((0.5,)), jitter=1e-8)
        assert math.isfinite(pred.mean[0])

    def test_vector_inputs_are_supported(self):
        gp = GPModel(zero_mean(), squared_exponential(1.0, 1.0), 0.1)
        s = TrainingSet((((0.0, 0.0), 1.0), ((1.0, 1.0), -1.0)))
        t = TestInputs(((0.5, 0.5),))
        pred = gp_posterior_predictive(gp, s, t)
        assert pred.dim == 1 and math.isfinite(pred.mean[0])

    @pytest.mark.parametrize("length, amp", [(1e-200, 1.0), (1e160, 1.0), (1.0, 1e200)])
    def test_scales_outside_the_float_range_are_refused(self, length, amp):
        with pytest.raises(pm.SchemaError):
            squared_exponential(length, amp)

    def test_overflowing_prediction_raises(self):
        s = TrainingSet(((0.0, 1e308), (0.3, -1e308)))
        with pytest.raises(pm.NumericalError):
            gp_posterior_predictive(self.GP, s, TestInputs((0.5,)))

    def test_against_finite_conditioning_on_a_grid(self):
        # one training and one test point; discretize the 2-D joint,
        # disintegrate it, and compare the conditional's moments
        gp = GPModel(zero_mean(), squared_exponential(1.0, 1.0), 0.25)
        x, t = 0.0, 0.7
        joint = gp_joint(gp, [x], [t])          # (test, train)
        sds = np.sqrt(np.diag(joint.cov))
        grid = pm.GridSpec.around(joint.mean, sds, 6.0, 1.0 / 40)
        m = pm.gauss_discretize(joint, grid)
        cond = pm.disintegrate(pm.mirror(m))    # train -> test
        train_labels = np.asarray(cond.source.labels)
        y = float(train_labels[int(np.argmin(np.abs(train_labels - 0.5)))])
        row = cond.row(y)
        pts = np.asarray(row.space.labels)
        w = np.asarray(row.weights)
        mean_f = float(w @ pts)
        var_f = float(w @ (pts - mean_f) ** 2)
        exact = gp_posterior_predictive(gp, TrainingSet(((x, y),)),
                                        TestInputs((t,)))
        assert abs(mean_f - exact.mean[0]) / abs(exact.mean[0]) < 1e-3
        assert abs(var_f - exact.cov[0, 0]) / exact.cov[0, 0] < 1e-3

    # The bridge's grids: +-6 sd with a step of 0.2 sd on every axis, so a
    # 2-D parameter (f(t), f(x)) has 60 x 60 cells and y has 60.
    BRIDGE_HALF_WIDTH, BRIDGE_STEP = 6.0, 0.2

    @classmethod
    def bridge_draws(cls, rng, n):
        """``n`` problems over gp-two-route's ranges of hyperparameters and
        inputs, with a zero mean, one training input x and one test input
        t.  A draw is redrawn when a
        standard deviation the grid must resolve is under one step: that
        of f(t) given f(x), sqrt(1 - corr^2) prior sd (so every
        corr > 0.98 is redrawn), or that of y given f(x),
        sqrt(noise / (amp^2 + noise)) predictive sd.  Under one step the
        grid aliases: with only corr > 0.99 redrawn, seed 0 draws y given
        f(x) at 0.85 steps (relative variance error 5.7e-6) and seed 4
        draws f(t) given f(x) at 0.72 steps (3.2e-5)."""
        out = []
        while len(out) < n:
            length, amp, noise = (float(v) for v in rng.uniform([0.5, 0.5, 0.1],
                                                                [2.0, 2.0, 1.0]))
            x, t = (float(v) for v in rng.uniform(-3, 3, size=2))
            corr = math.exp(-(t - x) ** 2 / (2 * length * length))
            if min(math.sqrt(1 - corr * corr),
                   math.sqrt(noise / (amp * amp + noise))) >= cls.BRIDGE_STEP:
                out.append((GPModel(zero_mean(), squared_exponential(length, amp), noise),
                            x, t))
        return out

    def test_regression_through_the_discretization_bridge(self):
        # f(x) + noise observes the 2-D parameter (f(t), f(x)) ~ N(0, K);
        # the bridge discretizes it onto 3,600 x 60 cells, bayes_invert
        # conditions on y, and marginal(., 0) is the prediction at t.  On
        # seeds 0-39 (800 draws) the worst errors were 7.3e-9 for the mean
        # and 6.9e-8 for the variance.
        for gp, x, t in self.bridge_draws(np.random.default_rng(0), 20):
            pts = np.array([[t], [x]])
            prior = pm.GaussianMeasure([0.0, 0.0], gp.cov_fn(pts, pts))
            obs = pm.AffineGaussianMap([[0.0, 1.0]], [0.0], [[gp.noise_var]])
            finite = pm.discretize_model(prior, obs, self.BRIDGE_HALF_WIDTH,
                                         self.BRIDGE_STEP)
            assert (finite.parameters.size, finite.observations.size) == (3600, 60)
            ys = np.asarray(finite.observations.labels)
            y_sd = math.sqrt(prior.cov[1, 1] + gp.noise_var)
            y = float(ys[int(np.argmin(np.abs(ys - 0.8 * y_sd)))])
            row = pm.marginal(pm.bayes_invert(finite).kernel.row(y), 0)
            pts_f, w = np.asarray(row.space.labels), np.asarray(row.weights)
            mean_f = float(w @ pts_f)
            var_f = float(w @ (pts_f - mean_f) ** 2)
            exact = gp_posterior_predictive(gp, TrainingSet(((x, y),)), TestInputs((t,)))
            mean, var = float(exact.mean[0]), float(exact.cov[0, 0])
            assert abs(mean_f - mean) / max(abs(mean), math.sqrt(var)) <= 1e-6
            assert abs(var_f - var) / var <= 1e-6


def per_pair_squared_exponential(length_scale, amplitude):
    """The squared-exponential covariance of one pair of inputs, as an
    oracle for the array form."""
    two_l2 = 2.0 * length_scale * length_scale
    a2 = amplitude * amplitude

    def k(x, x2):
        d = np.asarray(x, dtype=np.float64) - np.asarray(x2, dtype=np.float64)
        return a2 * float(np.exp(-np.sum(d * d) / two_l2))

    return k


class TestArrayGram:
    """The array form of squared_exponential against the per-pair loop."""

    @staticmethod
    def per_pair(k, xs, ys):
        return np.array([[k(x, y) for y in ys] for x in xs], dtype=np.float64)

    @pytest.mark.parametrize("length, amp", [(1.0, 1.0), (0.37, 2.5), (3.1, 0.2)])
    def test_one_dimensional_inputs(self, length, amp):
        k = squared_exponential(length, amp)
        xs = np.random.default_rng(5).normal(0.0, 2.0, size=40)
        got = k(xs[:, None], xs[:, None])
        assert got.shape == (40, 40)
        assert np.array_equal(
            got, self.per_pair(per_pair_squared_exponential(length, amp), xs, xs))

    def test_two_dimensional_inputs_and_rectangular_blocks(self):
        k = squared_exponential(0.9, 1.4)
        oracle = per_pair_squared_exponential(0.9, 1.4)
        rng = np.random.default_rng(6)
        xs = rng.uniform(-3.0, 3.0, size=(30, 2))
        ts = rng.uniform(-3.0, 3.0, size=(7, 2))
        for a, b in ((xs, xs), (ts, xs), (xs, ts)):
            got = k(a, b)
            assert got.shape == (len(a), len(b))
            assert np.array_equal(got, self.per_pair(oracle, a, b))

    def test_plain_callable_gives_the_same_prediction(self):
        two_l2, a2 = 2.0 * 1.2 * 1.2, 0.9 * 0.9

        def user_cov(X, Y):
            d = X[:, None, :] - Y[None, :, :]
            return a2 * np.exp(-(d * d).sum(axis=-1) / two_l2)

        rng = np.random.default_rng(7)
        xs = rng.uniform(-4.0, 4.0, size=25)
        s = TrainingSet(tuple(zip(xs, np.sin(xs))))
        t = TestInputs(tuple(np.linspace(-4.0, 4.0, 9)))
        fast = gp_posterior_predictive(
            GPModel(constant_mean(0.3), squared_exponential(1.2, 0.9), 0.1), s, t)
        slow = gp_posterior_predictive(
            GPModel(lambda X: np.full(len(X), 0.3), user_cov, 0.1), s, t)
        assert np.array_equal(fast.mean, slow.mean)
        assert np.array_equal(fast.cov, slow.cov)
