"""Core model layer: log-probabilities, sampling, gradients, construction."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

import support
from bihm.model import (
    SIGMOID_EPS,
    BeliefLayer,
    BihmModel,
    FactorizedPrior,
    ModelGradient,
    ShapeError,
    _row_sums,
    bernoulli_step,
    clamped_sigmoid,
    layer_log_prob,
    layer_sample,
    log_joint_p,
    log_q_given_x,
    p_pass,
    param_views,
    q_pass,
    random_model,
    sample_p_batch,
    sample_q_rows,
    sigmoid,
    weighted_gradient,
    zero_model,
)
from bihm.estimators import est_log_ptilde_rows, log_weights
from bihm.oracle import _blocks, bit_matrix
from bihm.sampling import GibbsConfig, gibbs_sample_chains
from bihm.training import minibatch_gradient


def stack_latents(model, configs):
    """One (K, d_l) array per layer from a list of per-layer tuples."""
    L = model.num_latent_layers
    return [np.array([c[i] for c in configs], dtype=np.float64) for i in range(L)]


def prior_log_prob(prior, h):
    """Log-probability of ``h`` under the prior: the step :func:`p_pass` takes at the top."""
    return bernoulli_step(prior.biases.copy(), np.asarray(h, dtype=np.float64))[1]


def q1_gradient(layer, v, t):
    """``weighted_gradient``'s entries for ``layer`` as the only q layer, at one (v, t) pair.

    The pair gets unit weight, so the result is that layer's gradient of
    ``layer_log_prob(layer, v, t)``: ``((t - mu) v^T, t - mu)``.
    """
    base = zero_model([layer.in_dim, layer.out_dim])
    model = BihmModel(base.layer_sizes, base.prior, base.p_layers, (layer,))
    x, h = v[None, None], [t[None, None]]
    p = p_pass(model, x, h, keep_means=True)
    q = q_pass(model, x, h, keep_means=True)
    grad = ModelGradient.zeros_for(model)
    weighted_gradient(model, grad, np.ones((1, 1)), x, h, p.means, q.means)
    views = param_views(grad.params, model.layer_sizes)
    return views["q1.weights"], views["q1.biases"]


class TestBeliefLayer:
    def test_dimensions_and_activation(self):
        layer = BeliefLayer(np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]]), np.array([0.5, -0.5]))
        assert layer.out_dim == 2
        assert layer.in_dim == 3
        assert_allclose(layer.activation(np.array([1.0, 0.0, 1.0])), [4.5, 0.0])

    def test_batched_activation(self):
        layer = BeliefLayer(np.ones((2, 3)), np.zeros(2))
        acts = layer.activation(np.ones((5, 3)))
        assert acts.shape == (5, 2)
        assert_allclose(acts, 3.0)
        rng = np.random.default_rng(11)
        layer = BeliefLayer(rng.normal(size=(4, 6)), rng.normal(size=4))
        joint = rng.normal(size=(7, 10))
        for inputs in (
            rng.normal(size=(5, 3, 6)),  # (b, k, d)
            rng.normal(size=(5, 1, 6)),  # (b, 1, d)
            joint[None, :, 2:8],  # a column slice, as the oracle's enumeration takes
            np.broadcast_to(rng.normal(size=6), (5, 3, 6)),
        ):
            acts = layer.activation(inputs)
            assert acts.shape == inputs.shape[:-1] + (4,)
            rows = [v @ layer.weights.T + layer.biases for v in inputs.reshape(-1, 6)]
            assert_allclose(acts.reshape(-1, 4), rows, rtol=1e-12)

    def test_contiguous_batch_is_not_copied(self):
        rng = np.random.default_rng(12)
        layer = BeliefLayer(rng.normal(size=(8, 500)), rng.normal(size=8))
        inputs = rng.random((40, 10, 500))
        tracemalloc.start()
        try:
            acts = layer.activation(inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The bias add may hold one ufunc buffer of np.getbufsize() floats;
        # a copy of the input would add 1.6 MB.
        assert peak < acts.nbytes + 8 * np.getbufsize() + 4096

    def test_inconsistent_shapes_rejected(self):
        with pytest.raises(ShapeError):
            BeliefLayer(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ShapeError):
            BeliefLayer(np.zeros((2,)), np.zeros(2))
        with pytest.raises(ShapeError):
            BeliefLayer(np.zeros((0, 3)), np.zeros(0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BeliefLayer(np.array([[np.inf]]), np.zeros(1))
        with pytest.raises(ValueError):
            FactorizedPrior(np.array([np.nan]))

    def test_frozen(self):
        layer = BeliefLayer(np.zeros((1, 1)), np.zeros(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            layer.biases = np.ones(1)


class TestSigmoids:
    def test_clamp_bounds(self):
        assert sigmoid(50.0) > 1.0 - 1e-8
        assert clamped_sigmoid(50.0) == 1.0 - SIGMOID_EPS
        assert clamped_sigmoid(-50.0) == SIGMOID_EPS
        assert clamped_sigmoid(0.0) == 0.5

    def test_matches_reference(self):
        for a in (-7.3, -0.01, 0.0, 2.5, 11.0, -40.0, 40.0, 709.8, 1000.0):
            assert_allclose(sigmoid(a), support.stable_sigmoid(a), rtol=1e-14)
        # Below a = -709 the reference is subnormal or zero and exp(-a) overflows:
        # the result is exactly 0.0, with no warning.
        for a in (-709.8, -1000.0):
            assert support.stable_sigmoid(a) < np.finfo(float).tiny
            assert sigmoid(a) == 0.0
        a = np.array([-1000.0, -709.8, -40.0, 0.0, 40.0, 709.8, 1000.0])
        expected = [support.stable_sigmoid(v) for v in a]
        result = sigmoid(a, out=a)
        assert result is a
        assert a[0] == 0.0 and a[3] == 0.5 and a[-1] == 1.0
        assert_allclose(a[2:], expected[2:], rtol=1e-14)


class TestLayerLogProb:
    def test_zero_layer_symmetry(self):
        layer = BeliefLayer(np.zeros((2, 3)), np.zeros(2))
        for target in ([0, 0], [0, 1], [1, 0], [1, 1]):
            value = layer_log_prob(layer, np.array([1.0, 0.0, 1.0]), np.array(target, dtype=float))
            assert abs(value - 2.0 * math.log(0.5)) < 1e-12

    def test_saturated_bias(self):
        layer = BeliefLayer(np.zeros((1, 2)), np.array([10.0]))
        value = layer_log_prob(layer, np.zeros(2), np.ones(1))
        assert_allclose(value, -math.log1p(math.exp(-10.0)), rtol=1e-12)
        assert_allclose(value, -4.539889921686465e-05, rtol=1e-12)

    def test_clamped_tail_is_finite(self):
        layer = BeliefLayer(np.zeros((1, 1)), np.array([40.0]))
        value = layer_log_prob(layer, np.zeros(1), np.zeros(1))
        assert np.isfinite(value)
        assert_allclose(value, math.log(SIGMOID_EPS), rtol=1e-9)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        layer = BeliefLayer(rng.normal(size=(2, 3)), rng.normal(size=2))
        for _ in range(20):
            v = (rng.random(3) < 0.5).astype(float)
            t = (rng.random(2) < 0.5).astype(float)
            expected = math.log(support.layer_probability(layer, v, t))
            assert abs(layer_log_prob(layer, v, t) - expected) < 1e-12

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(6)
        layer = BeliefLayer(rng.normal(size=(3, 4)), rng.normal(size=3))
        vs = (rng.random((7, 4)) < 0.5).astype(float)
        ts = (rng.random((7, 3)) < 0.5).astype(float)
        batch = layer_log_prob(layer, vs, ts)
        assert batch.shape == (7,)
        for i in range(7):
            assert_allclose(batch[i], layer_log_prob(layer, vs[i], ts[i]), rtol=1e-14)

    def test_shape_errors(self):
        layer = BeliefLayer(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            layer_log_prob(layer, np.zeros(4), np.zeros(2))
        with pytest.raises(ShapeError):
            layer_log_prob(layer, np.zeros(3), np.zeros(3))

    def test_normalization_by_enumeration(self):
        # Exponentiated log-probs over the full target space sum to one.
        rng = np.random.default_rng(7)
        layer = BeliefLayer(rng.normal(size=(3, 2)), rng.normal(size=3))
        v = np.array([1.0, 0.0])
        targets = bit_matrix(3)
        total = np.exp(layer_log_prob(layer, v, targets)).sum()
        assert abs(total - 1.0) < 1e-10


class TestRowSums:
    """The last-axis sum as one matrix-vector product."""

    def test_agrees_with_sum_for_every_width(self):
        # The GEMV may add a row's terms in another order, so agreement is to
        # d rounding steps of the row's absolute sum, not bitwise.
        rng = np.random.default_rng(300)
        eps = np.finfo(np.float64).eps
        for d in range(1, 785):
            a = rng.normal(size=(5, d)) * rng.choice([1e-3, 1.0, 1e3], size=(5, 1))
            bound = d * eps * np.abs(a).sum(axis=-1)
            assert np.all(np.abs(_row_sums(a) - a.sum(axis=-1)) <= bound), d

    @pytest.mark.parametrize(
        "a",
        [
            np.arange(7.0),
            np.zeros((0, 4)),
            np.arange(24.0).reshape(2, 3, 4),
            np.arange(60.0).reshape(6, 10)[1::2, ::3],
            np.arange(60.0).reshape(6, 10).T,
        ],
        ids=["1-D", "zero rows", "3-D", "strided view", "transposed view"],
    )
    def test_shapes_and_views(self, a):
        # Small integers sum exactly in any order.
        out = _row_sums(a)
        assert out.shape == a.shape[:-1]
        assert_array_equal(out, a.sum(axis=-1))


@st.composite
def activations_and_targets(draw):
    rows = draw(st.integers(1, 3))
    width = draw(st.integers(1, 300))
    a = draw(hnp.arrays(np.float64, (rows, width), elements=st.floats(-40.0, 40.0)))
    t = draw(hnp.arrays(np.float64, (rows, width), elements=st.sampled_from([0.0, 1.0])))
    return a, t


def two_log_reference(a, t):
    """``sum t log c + (1 - t) log(1 - c)`` in ``np.longdouble``, ``c`` the clamped mean of ``a``.

    The mean is clamped to the float64 bounds ``[SIGMOID_EPS, fl(1 -
    SIGMOID_EPS)]``, as :func:`clamped_sigmoid` clamps it.  In float64 this
    reference is itself off by up to 8.5e-12 relative (``1 - c`` loses the
    digits of ``c`` near 1, at ``a = 11`` already); the 64-bit significand
    of the x86 extended type keeps them.
    """
    a = np.asarray(a, dtype=np.longdouble)
    lo, hi = np.longdouble(SIGMOID_EPS), np.longdouble(1.0 - SIGMOID_EPS)
    c = np.clip(1 / (1 + np.exp(-a)), lo, hi)
    return np.sum(t * np.log(c) + (1 - t) * np.log1p(-c), axis=-1)


class TestBernoulliStepScore:
    """The score of a 0/1 target, from the activation, against the two-log reference."""

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended long double")
    @settings(max_examples=300, deadline=None)
    @given(activations_and_targets())
    def test_matches_two_log_reference(self, drawn):
        a, t = drawn
        reference = two_log_reference(a, t)
        score = bernoulli_step(a.copy(), t)[1]
        # 1e-13 per row, scaled by the row's size once it exceeds 1 nat: a
        # row of 300 saturated units sums to about -2000 nats, where one
        # rounding step of the sum is 2.3e-13.
        assert np.all(np.abs(score - reference) <= 1e-13 * np.maximum(1.0, np.abs(reference)))

    def test_saturated_means_score_the_clamp(self):
        a = np.array([[-40.0, 40.0, -40.0, 40.0]])
        t = np.array([[0.0, 1.0, 1.0, 0.0]])
        c = clamped_sigmoid(a)
        expected = 2 * math.log1p(-SIGMOID_EPS) + math.log(SIGMOID_EPS) + math.log1p(-c[0, 1])
        assert_allclose(bernoulli_step(a.copy(), t)[1], [expected], rtol=1e-15)

    def test_keep_mean_leaves_the_mean_unclamped(self):
        a = np.array([[-40.0, 0.3, 40.0]])
        t = np.array([[0.0, 1.0, 1.0]])
        _, score, mean = bernoulli_step(a.copy(), t, keep_mean=True)
        assert_array_equal(mean, sigmoid(np.array([[-40.0, 0.3, 40.0]])))
        assert mean[0, 0] < SIGMOID_EPS and mean[0, 2] > 1.0 - SIGMOID_EPS
        _, clipped_score, no_mean = bernoulli_step(a.copy(), t)
        assert no_mean is None
        assert_array_equal(score, clipped_score)


class TestPrior:
    def test_zero_bias(self):
        prior = FactorizedPrior(np.zeros(2))
        assert abs(prior_log_prob(prior, np.array([1.0, 0.0])) - 2 * math.log(0.5)) < 1e-12

    def test_minus_one_bias(self):
        # biases of -1 with all-zero target: 2 * ln sigmoid(1)
        prior = FactorizedPrior(np.array([-1.0, -1.0]))
        value = prior_log_prob(prior, np.zeros(2))
        assert_allclose(value, -0.6265233750364457, rtol=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(8)
        prior = FactorizedPrior(rng.normal(size=3))
        total = np.exp(prior_log_prob(prior, bit_matrix(3))).sum()
        assert abs(total - 1.0) < 1e-12

    def test_shape_error(self):
        # The scoring surface checks the top layer's width against the prior.
        model = zero_model([2, 1, 2])
        with pytest.raises(ShapeError):
            log_joint_p(model, np.zeros(2), [np.zeros(1), np.zeros(3)])


class TestLayerSample:
    def test_fair_coin_means(self):
        layer = BeliefLayer(np.zeros((3, 2)), np.zeros(3))
        rng = np.random.default_rng(0)
        draws = layer_sample(layer, np.broadcast_to(np.ones(2), (100_000, 2)), rng)
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) < 0.01)

    def test_saturated_bias_all_ones(self):
        # With a +20 bias the unclamped success probability is 1 - 2.1e-9,
        # so a seeded batch of 10^4 draws comes out all ones.
        layer = BeliefLayer(np.zeros((1, 1)), np.array([20.0]))
        rng = np.random.default_rng(1)
        draws = layer_sample(layer, np.zeros((10_000, 1)), rng)
        assert draws.min() == 1.0

    def test_seeded_means_match_sigmoid(self):
        rng = np.random.default_rng(2)
        layer = BeliefLayer(rng.normal(size=(3, 2)), rng.normal(size=3))
        v = np.array([1.0, 0.0])
        mu = sigmoid(layer.activation(v))
        n = 100_000
        draws = layer_sample(layer, np.broadcast_to(v, (n, 2)), rng)
        se = np.sqrt(mu * (1 - mu) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mu) < 4 * se)

    def test_binary_output(self):
        layer = BeliefLayer(np.zeros((4, 2)), np.zeros(4))
        draws = layer_sample(layer, np.ones((50, 2)), np.random.default_rng(3))
        assert set(np.unique(draws)) <= {0.0, 1.0}

    def test_prior_sample(self):
        prior = FactorizedPrior(np.zeros(3))
        rng = np.random.default_rng(4)
        draws = bernoulli_step(prior.biases.copy(), rng=rng, shape=(2000, prior.dim))[0]
        assert draws.shape == (2000, 3)
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) < 0.05)


class TestJointLogProbs:
    def test_zero_model_values(self):
        # 2 visible bits, 1 middle bit, 1 top bit, every conditional uniform:
        # p(x, h) = 0.5 * 0.5 * 0.25 and q(h | x) = 0.5 * 0.5.
        model = zero_model([2, 1, 1])
        x = np.array([1.0, 0.0])
        h = [np.array([1.0]), np.array([0.0])]
        assert abs(log_joint_p(model, x, h) - math.log(0.5 * 0.5 * 0.25)) < 1e-12
        assert abs(log_joint_p(model, x, h) - (-2.7725887222397811)) < 1e-12
        assert abs(log_q_given_x(model, x, h) - math.log(0.25)) < 1e-12

    def test_matches_reference_products(self):
        rng = np.random.default_rng(9)
        model = random_model([3, 2, 2], rng)
        for _ in range(10):
            x = (rng.random(3) < 0.5).astype(float)
            hs = tuple(tuple(int(b) for b in (rng.random(2) < 0.5)) for _ in range(2))
            h = [np.array(layer, dtype=float) for layer in hs]
            assert abs(log_joint_p(model, x, h) - math.log(support.p_joint(model, tuple(x), hs))) < 1e-12
            assert abs(log_q_given_x(model, x, h) - math.log(support.q_conditional(model, tuple(x), hs))) < 1e-12

    def test_composition_consistency(self):
        rng = np.random.default_rng(10)
        model = random_model([3, 2, 2], rng)
        x = np.array([1.0, 1.0, 0.0])
        h = [np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        manual_p = (
            prior_log_prob(model.prior, h[1])
            + layer_log_prob(model.p_layers[1], h[1], h[0])
            + layer_log_prob(model.p_layers[0], h[0], x)
        )
        manual_q = layer_log_prob(model.q_layers[0], x, h[0]) + layer_log_prob(
            model.q_layers[1], h[0], h[1]
        )
        assert abs(log_joint_p(model, x, h) - manual_p) < 1e-12
        assert abs(log_q_given_x(model, x, h) - manual_q) < 1e-12

    def test_joint_normalization(self):
        rng = np.random.default_rng(11)
        model = random_model([2, 2, 1], rng)
        total = 0.0
        hs_all = support.latent_tuples(model)
        layers = stack_latents(model, hs_all)
        for x in support.all_bit_tuples(2):
            total += np.exp(log_joint_p(model, np.array(x, dtype=float), layers)).sum()
        assert abs(total - 1.0) < 1e-10

    def test_q_normalization(self):
        rng = np.random.default_rng(12)
        model = random_model([3, 2, 2], rng)
        x = np.array([0.0, 1.0, 1.0])
        layers = stack_latents(model, support.latent_tuples(model))
        total = np.exp(log_q_given_x(model, x, layers)).sum()
        assert abs(total - 1.0) < 1e-10

    def test_q_permutation_symmetry(self):
        # Permuting visible bits together with the first q layer's input
        # columns leaves q(h | x) unchanged.
        rng = np.random.default_rng(13)
        model = random_model([4, 3, 2], rng)
        perm = np.array([2, 0, 3, 1])
        q0 = model.q_layers[0]
        permuted = BeliefLayer(q0.weights[:, perm], q0.biases)
        model2 = BihmModel(
            model.layer_sizes, model.prior, model.p_layers, (permuted,) + model.q_layers[1:]
        )
        x = np.array([1.0, 0.0, 0.0, 1.0])
        h = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0])]
        assert abs(log_q_given_x(model, x, h) - log_q_given_x(model2, x[perm], h)) < 1e-12

    def test_latent_count_mismatch(self):
        model = zero_model([2, 1, 1])
        with pytest.raises(ShapeError):
            log_joint_p(model, np.zeros(2), [np.zeros(1)])
        with pytest.raises(ShapeError):
            log_q_given_x(model, np.zeros(2), [np.zeros(1)])


class TestScoringPasses:
    @pytest.mark.parametrize("sizes", [[6, 4, 3], [4, 3]])
    def test_scoring_passes_draw_nothing(self, sizes):
        # With every layer given, a pass only scores: a generator passed
        # along is left as it was, and the scores are those of the public
        # scoring functions.
        model = random_model(sizes, np.random.default_rng(30))
        rng = np.random.default_rng(31)
        x = (rng.random((5, 2, sizes[0])) < 0.5).astype(np.float64)
        layers = [(rng.random((5, 2, d)) < 0.5).astype(np.float64) for d in sizes[1:]]
        state = rng.bit_generator.state
        q = q_pass(model, x, layers, rng=rng)
        p = p_pass(model, x, layers, rng=rng)
        assert rng.bit_generator.state == state
        assert_array_equal(q.log_prob, log_q_given_x(model, x, layers))
        assert_array_equal(p.log_prob, log_joint_p(model, x, layers))
        assert q.log_prob.shape == p.log_prob.shape == (5, 2)


class TestAncestralSampling:
    def test_zero_model_visible_means(self):
        model = zero_model([3, 2])
        x, _ = sample_p_batch(model, 100_000, np.random.default_rng(14))
        assert np.all(np.abs(x.mean(axis=0) - 0.5) < 0.01)

    def test_zero_model_latent_means(self):
        model = zero_model([3, 2])
        x = np.array([[1.0, 0.0, 1.0]])
        layers = sample_q_rows(model, x, 100_000, np.random.default_rng(15))
        assert np.all(np.abs(layers[0][0].mean(axis=0) - 0.5) < 0.01)

    def test_joint_frequencies_match_enumeration(self):
        # Empirical (x, h) frequencies from ancestral sampling agree with the
        # enumerated joint to within binomial error.
        rng = np.random.default_rng(16)
        model = random_model([2, 1], rng)
        n = 1_000_000
        x, layers = sample_p_batch(model, n, rng)
        codes = (
            x.astype(np.int64) @ np.array([4, 2]) + layers[0][:, 0].astype(np.int64)
        )
        counts = np.bincount(codes, minlength=8)
        for xi, x_bits in enumerate(support.all_bit_tuples(2)):
            for hi in (0, 1):
                prob = support.p_joint(model, x_bits, ((hi,),))
                emp = counts[4 * x_bits[0] + 2 * x_bits[1] + hi] / n
                se = math.sqrt(prob * (1 - prob) / n)
                assert abs(emp - prob) < 4 * se

    @pytest.mark.parametrize("sizes", [[6, 4, 3], [4, 3]])
    def test_passes_draw_uniforms_below_the_sigmoid_of_the_activation(self, sizes):
        # Layer by layer, each draw is (u < sigmoid(W v + b)) for the next
        # uniforms u of the generator, with the unclamped sigmoid.
        model = random_model(sizes, np.random.default_rng(17), weight_scale=3.0, bias_scale=3.0)
        x = (np.random.default_rng(18).random((5, sizes[0])) < 0.5).astype(np.float64)
        rng, ref = np.random.default_rng(19), np.random.default_rng(19)

        def expected(mean, shape):
            return (ref.random(shape) < mean).astype(np.float64)

        below = x[:, None, :]
        for layer, drawn in zip(model.q_layers, q_pass(model, x, k=3, rng=rng).layers):
            assert_array_equal(drawn, expected(sigmoid(layer.activation(below)), drawn.shape))
            below = drawn
        p = p_pass(model, k=4, rng=rng)
        hs = [p.x] + p.layers
        assert_array_equal(hs[-1], expected(sigmoid(model.prior.biases), hs[-1].shape))
        for i in range(model.num_latent_layers - 1, -1, -1):
            mean = sigmoid(model.p_layers[i].activation(hs[i + 1]))
            assert_array_equal(hs[i], expected(mean, hs[i].shape))

    def test_sample_q_rows_shapes(self):
        model = zero_model([3, 2, 2])
        rows = np.zeros((5, 3))
        layers = sample_q_rows(model, rows, 4, np.random.default_rng(18))
        assert [a.shape for a in layers] == [(5, 4, 2), (5, 4, 2)]
        with pytest.raises(ShapeError):
            sample_q_rows(model, np.zeros(3), 4, np.random.default_rng(0))


class TestPassesLeaveTheModel:
    def test_no_pass_writes_the_parameters(self):
        # Biases of +-40 lie past the score's clip, so a pass that scored a
        # view of the parameters in place would rewrite them.
        sizes = (5, 4, 3)
        params = random_model(sizes, np.random.default_rng(26), weight_scale=3.0).params.copy()
        for name, view in param_views(params, sizes).items():
            if name.endswith("biases"):
                view[:2] = (40.0, -40.0)
        model = BihmModel.from_params(sizes, params)
        before = params.copy()
        rng = np.random.default_rng(27)
        x = (rng.random((6, 5)) < 0.5).astype(np.float64)
        drawn = p_pass(model, k=4, rng=rng)
        p_pass(model, drawn.x, drawn.layers)
        q_pass(model, x, k=3, rng=rng, keep_means=True)
        q_pass(model, drawn.x, drawn.layers)
        log_weights(model, x, k=3, rng=rng)
        minibatch_gradient(model, x, 3, rng)
        # Three layers, so the sweeps also update the top one, under the prior.
        gibbs_sample_chains(model, 3, GibbsConfig(num_sweeps=2, proposals_per_step=4), rng)
        assert_array_equal(model.params.view(np.int64), before.view(np.int64))


class TestOneActivationPerLayer:
    """Each pass computes every activation once; the gradient reuses their means."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        original = BeliefLayer.activation

        def counting(layer, inputs):
            count[0] += 1
            return original(layer, inputs)

        monkeypatch.setattr(BeliefLayer, "activation", counting)
        return count

    def setup_method(self):
        self.model = random_model([5, 4, 3], np.random.default_rng(19))
        self.rows = (np.random.default_rng(20).random((6, 5)) < 0.5).astype(np.float64)

    # The six rows fit one share of the budget, so they run as two even
    # blocks, one per lane, and each block computes the 4 activations once.
    def test_minibatch_gradient(self, calls):
        minibatch_gradient(self.model, self.rows, 7, np.random.default_rng(21))
        assert calls[0] == 4 * 2

    def test_row_estimates_in_one_block(self, calls):
        est_log_ptilde_rows(self.model, self.rows, 7, np.random.default_rng(22))
        assert calls[0] == 4 * 2


def reference_weighted_gradient(model, grad, weights, x, layers, p_means, q_means):
    """``weighted_gradient`` as three-operand einsums over every row and sample.

    The input of each layer is broadcast to ``(b, k, in_dim)`` and contracted
    with the weights and the deltas in one einsum, with no sum over the
    samples first.
    """
    out = param_views(grad.params, model.layer_sizes)
    L = model.num_latent_layers
    x = np.broadcast_to(x, np.shape(weights) + (model.visible_dim,))
    out["prior.biases"] += np.einsum("bk,bkd->d", weights, layers[L - 1] - p_means[L], optimize=True)
    for i in range(L):
        below = x if i == 0 else layers[i - 1]
        for name, inputs, targets, mean in (
            (f"p{i + 1}", layers[i], below, p_means[i]),
            (f"q{i + 1}", below, layers[i], q_means[i]),
        ):
            delta = targets - mean
            out[name + ".weights"] += np.einsum("bk,bko,bki->oi", weights, delta, inputs, optimize=True)
            out[name + ".biases"] += np.einsum("bk,bko->o", weights, delta, optimize=True)


def sampled_gradient_args(model, b, k, rng):
    """Arguments as ``minibatch_gradient`` passes them: visibles ``(b, 1, d)``, layers ``(b, k, d_l)``."""
    x = (rng.random((b, model.visible_dim)) < 0.5).astype(np.float64)
    q = q_pass(model, x, k=k, rng=rng, keep_means=True)
    p = p_pass(model, x[:, None, :], q.layers, keep_means=True)
    return x[:, None, :], q.layers, p.means, q.means


def enumerated_gradient_args(model, rng):
    """Arguments as the oracle passes them: 1-D visibles, layers ``(1, C, d_l)`` of every configuration."""
    x = (rng.random(model.visible_dim) < 0.5).astype(np.float64)
    layers = next(_blocks(model, 1))[2]
    p = p_pass(model, x, layers, keep_means=True)
    q = q_pass(model, x, layers, keep_means=True)
    return x, layers, p.means, q.means


class TestLayerGrad:
    def test_half_mean_example(self):
        layer = BeliefLayer(np.zeros((2, 3)), np.zeros(2))
        d_weights, d_biases = q1_gradient(layer, np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0]))
        assert_array_equal(d_biases, [0.5, -0.5])
        assert_array_equal(d_weights, [[0.5, 0.5, 0.0], [-0.5, -0.5, 0.0]])

    def test_stationary_at_mean(self):
        rng = np.random.default_rng(19)
        layer = BeliefLayer(rng.normal(size=(2, 3)), rng.normal(size=2))
        v = np.array([1.0, 0.0, 1.0])
        mu = sigmoid(layer.activation(v[None, None]))[0, 0]
        d_weights, d_biases = q1_gradient(layer, v, mu)
        assert_array_equal(d_biases, np.zeros(2))
        assert_array_equal(d_weights, np.zeros((2, 3)))

    def test_finite_differences(self):
        rng = np.random.default_rng(20)
        layer = BeliefLayer(rng.normal(size=(2, 3)), rng.normal(size=2))
        v = np.array([1.0, 0.0, 1.0])
        t = np.array([0.0, 1.0])
        d_weights, d_biases = q1_gradient(layer, v, t)
        eps = 1e-5
        w = layer.weights.copy()
        b = layer.biases.copy()
        for i in range(2):
            for j in range(3):
                w[i, j] += eps
                hi = layer_log_prob(BeliefLayer(w, b), v, t)
                w[i, j] -= 2 * eps
                lo = layer_log_prob(BeliefLayer(w, b), v, t)
                w[i, j] += eps
                fd = (hi - lo) / (2 * eps)
                scale = max(abs(fd), abs(d_weights[i, j]), 1e-8)
                assert abs(fd - d_weights[i, j]) / scale < 1e-6
            b[i] += eps
            hi = layer_log_prob(BeliefLayer(w, b), v, t)
            b[i] -= 2 * eps
            lo = layer_log_prob(BeliefLayer(w, b), v, t)
            b[i] += eps
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - d_biases[i]) / max(abs(fd), 1e-8) < 1e-6

    def test_adds_into_the_given_gradient(self):
        model = random_model([3, 2, 2], np.random.default_rng(21))
        x = np.array([[[1.0, 0.0, 1.0]]])
        h = [np.array([[[0.0, 1.0]]]), np.array([[[1.0, 1.0]]])]
        p = p_pass(model, x, h, keep_means=True)
        q = q_pass(model, x, h, keep_means=True)
        fresh = ModelGradient.zeros_for(model)
        weighted_gradient(model, fresh, np.ones((1, 1)), x, h, p.means, q.means)
        grad = ModelGradient(model.layer_sizes, np.ones_like(model.params))
        weighted_gradient(model, grad, np.ones((1, 1)), x, h, p.means, q.means)
        assert_array_equal(grad.params, 1.0 + fresh.params)

    @pytest.mark.parametrize(
        "case",
        [
            lambda model, rng: sampled_gradient_args(model, 4, 6, rng),
            enumerated_gradient_args,
            lambda model, rng: sampled_gradient_args(model, 5, 1, rng),
        ],
        ids=["visibles (b, 1, d)", "oracle 1-D visibles", "k = 1"],
    )
    def test_gemm_form_matches_einsum_reference(self, case):
        # The sums run in another order, so the two agree to rounding, set
        # relative to the largest entry.
        rng = np.random.default_rng(23)
        model = random_model([6, 4, 3], rng, weight_scale=1.5)
        x, layers, p_means, q_means = case(model, rng)
        weights = rng.random(layers[0].shape[:2])
        grad = ModelGradient.zeros_for(model)
        weighted_gradient(model, grad, weights, x, layers, p_means, q_means)
        expected = ModelGradient.zeros_for(model)
        reference_weighted_gradient(model, expected, weights, x, layers, p_means, q_means)
        assert np.max(np.abs(grad.params - expected.params)) <= 1e-12 * np.max(np.abs(expected.params))


class TestModelConstruction:
    def test_zero_model(self):
        model = zero_model([4, 3, 2])
        assert model.layer_sizes == (4, 3, 2)
        assert model.num_latent_layers == 2
        assert model.visible_dim == 4
        assert model.latent_sizes == (3, 2)
        assert model.num_latent_bits == 5
        for _, a in model.param_items():
            assert_array_equal(a, np.zeros_like(a))

    def test_param_items_order(self):
        model = zero_model([4, 3, 2])
        names = [name for name, _ in model.param_items()]
        assert names == [
            "prior.biases",
            "p2.weights",
            "p2.biases",
            "p1.weights",
            "p1.biases",
            "q1.weights",
            "q1.biases",
            "q2.weights",
            "q2.biases",
        ]

    def test_with_params_round_trip(self):
        model = random_model([4, 3, 2], np.random.default_rng(21))
        rebuilt = model.with_params([a.copy() for _, a in model.param_items()])
        for (n1, a1), (n2, a2) in zip(model.param_items(), rebuilt.param_items()):
            assert n1 == n2
            assert_array_equal(a1, a2)

    def test_with_params_count_check(self):
        model = zero_model([3, 2])
        with pytest.raises(ShapeError):
            model.with_params([np.zeros(2)])

    def test_random_model_determinism(self):
        a = random_model([4, 3], np.random.default_rng(22))
        b = random_model([4, 3], np.random.default_rng(22))
        for (_, x), (_, y) in zip(a.param_items(), b.param_items()):
            assert_array_equal(x, y)
        # the two stacks are drawn independently, so p and q differ
        assert not np.array_equal(a.p_layers[0].weights, a.q_layers[0].weights.T)

    def test_invalid_sizes(self):
        with pytest.raises(ShapeError):
            zero_model([4])
        with pytest.raises(ShapeError):
            zero_model([4, 0])
        with pytest.raises(ShapeError):
            random_model([3], np.random.default_rng(0))

    def test_mismatched_stacks(self):
        base = zero_model([3, 2])
        with pytest.raises(ShapeError):
            BihmModel((3, 2), FactorizedPrior(np.zeros(3)), base.p_layers, base.q_layers)
        with pytest.raises(ShapeError):
            BihmModel((3, 2), base.prior, (), base.q_layers)
        wrong = (BeliefLayer(np.zeros((4, 2)), np.zeros(4)),)
        with pytest.raises(ShapeError):
            BihmModel((3, 2), base.prior, wrong, base.q_layers)

    def test_latent_config_validation(self):
        # Latents are one array per layer, checked by both scoring functions.
        model = zero_model([2, 2, 1])
        x = np.zeros(2)
        for score in (log_joint_p, log_q_given_x):
            with pytest.raises(ValueError, match="entries must be 0 or 1"):
                score(model, x, [np.array([0.0, 0.5]), np.array([1.0])])
            for wrong in ([], [np.zeros(2)], [np.zeros(3), np.zeros(1)]):
                with pytest.raises(ShapeError):
                    score(model, x, wrong)
            assert np.isfinite(score(model, x, [np.array([1.0, 0.0]), np.array([1.0])]))
