"""Importance-weighted wake-sleep style training: gradients, Adam, full loop."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bihm import estimators, training
from bihm.model import (
    ModelGradient,
    ShapeError,
    log_joint_p,
    log_q_given_x,
    param_views,
    random_model,
    sample_q_rows,
    sigmoid,
    zero_model,
)
from bihm.oracle import exact_grad_log_ptilde
from bihm.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    TrainingDiverged,
    adam_update,
    init_model,
    minibatch_gradient,
    train,
)

METRIC_KEYS = {
    "epoch",
    "updates",
    "train_logptilde",
    "valid_logptilde",
    "two_log_z",
    "ess_pct",
    "seconds",
}


def flatten_gradient(grad):
    return np.concatenate([a.ravel() for _, a in grad.param_items()])


def block_layers(model, batch, k, seed):
    """The q samples ``minibatch_gradient`` draws for a batch whose rows fit one share.

    Its rows are cut into two even blocks, and block ``i`` draws from child
    ``i`` of the generator's first spawned child.
    """
    n = batch.shape[0]
    streams = np.random.default_rng(seed).spawn(1)[0].spawn(2)
    parts = [sample_q_rows(model, batch[a:b], k, s) for (a, b), s in zip([(0, n // 2), (n // 2, n)], streams)]
    return [np.concatenate(layer) for layer in zip(*parts)]


def layer_gradient(layer, v, t):
    """Gradient of one layer's ``log p(t | v)`` for single vectors: ``((t - mu) v^T, t - mu)``."""
    delta = t - sigmoid(layer.activation(v))
    return np.outer(delta, v), delta


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.k_train == 10
        assert config.batch_size == 100
        assert config.learning_rate == 1e-3
        assert config.l1_lambda == 1e-3
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(k_train=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1e-3)
        with pytest.raises(ValueError):
            TrainConfig(l1_lambda=-0.1)


class TestInitModel:
    def test_all_biases_start_at_minus_one(self):
        model = init_model((6, 4, 3), seed=0)
        assert_array_equal(model.prior.biases, np.full(3, -1.0))
        for layer in model.p_layers + model.q_layers:
            assert_array_equal(layer.biases, np.full(layer.out_dim, -1.0))

    def test_weight_bound_scales_with_fan(self):
        model = init_model((300, 200), seed=1)
        bound = math.sqrt(6.0 / 500.0)
        for layer in model.p_layers + model.q_layers:
            w = layer.weights
            assert np.abs(w).max() <= bound
            # the draw is uniform, so the empirical max should approach it
            assert np.abs(w).max() >= 0.9 * bound

    def test_deterministic(self):
        a = init_model((5, 3, 2), seed=7)
        b = init_model((5, 3, 2), seed=7)
        for (_, x), (_, y) in zip(a.param_items(), b.param_items()):
            assert_array_equal(x, y)

    def test_invalid_sizes(self):
        with pytest.raises(ShapeError):
            init_model((5,), seed=0)


class TestMinibatchGradient:
    def test_matches_per_sample_assembly(self):
        # Recompute the estimator by hand: reproduce the same q samples,
        # weight them by the softmax of the half log-ratios, and accumulate
        # single-vector layer gradients.  This pins the estimator to the
        # blocked per-layer form with no gradient flow across layers.
        model = random_model([3, 2, 2], np.random.default_rng(70))
        batch = (np.random.default_rng(71).random((3, 3)) < 0.5).astype(np.float64)
        grad = minibatch_gradient(model, batch, 4, np.random.default_rng(72))

        layers = block_layers(model, batch, 4, 72)
        expected = {name: np.zeros_like(a) for name, a in model.param_items()}
        b = batch.shape[0]
        for i in range(b):
            x = batch[i]
            lw = np.array(
                [
                    0.5
                    * (
                        log_joint_p(model, x, [layers[0][i, k], layers[1][i, k]])
                        - log_q_given_x(model, x, [layers[0][i, k], layers[1][i, k]])
                    )
                    for k in range(4)
                ]
            )
            w = np.exp(lw - lw.max())
            w /= w.sum()
            for k in range(4):
                h1, h2 = layers[0][i, k], layers[1][i, k]
                scale = w[k] / b
                expected["prior.biases"] += scale * (h2 - sigmoid(model.prior.biases))
                for name, layer, inp, tgt in (
                    ("p2", model.p_layers[1], h2, h1),
                    ("p1", model.p_layers[0], h1, x),
                    ("q1", model.q_layers[0], x, h1),
                    ("q2", model.q_layers[1], h1, h2),
                ):
                    d_weights, d_biases = layer_gradient(layer, inp, tgt)
                    expected[name + ".weights"] += scale * d_weights
                    expected[name + ".biases"] += scale * d_biases
        for name, a in grad.param_items():
            assert np.all(np.abs(a - expected[name]) < 1e-12), name

    def test_single_sample_is_unweighted(self):
        # K = 1 makes every softmax weight exactly one.
        model = zero_model([3, 2])
        batch = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        grad = minibatch_gradient(model, batch, 1, np.random.default_rng(73))
        layers = block_layers(model, batch, 1, 73)
        expected_prior = (layers[0][:, 0] - 0.5).mean(axis=0)
        assert np.all(np.abs(dict(grad.param_items())["prior.biases"] - expected_prior) < 1e-12)

    def test_uniform_model_prior_gradient(self):
        # With p = q the weights are uniform and the prior gradient is the
        # mean deviation of the sampled top layer from one half.
        model = zero_model([4, 3])
        batch = (np.random.default_rng(74).random((5, 4)) < 0.5).astype(np.float64)
        grad = minibatch_gradient(model, batch, 6, np.random.default_rng(75))
        layers = block_layers(model, batch, 6, 75)
        expected = (layers[0] - 0.5).mean(axis=(0, 1))
        assert np.all(np.abs(dict(grad.param_items())["prior.biases"] - expected) < 1e-12)

    def test_converges_to_exact_gradient(self):
        model = random_model([3, 2, 2], np.random.default_rng(76))
        x = np.array([1.0, 0.0, 1.0])
        est = flatten_gradient(minibatch_gradient(model, x[None, :], 20_000, np.random.default_rng(77)))
        exact = flatten_gradient(exact_grad_log_ptilde(model, x))
        cosine = est @ exact / (np.linalg.norm(est) * np.linalg.norm(exact))
        assert cosine >= 0.99
        assert np.linalg.norm(est - exact) <= 0.1 * np.linalg.norm(exact)

    def test_row_blocks_match_one_row_calls(self, monkeypatch):
        # With one row per block, row i draws from block i's stream; a
        # one-row call whose one block draws from that same stream gives its
        # gradient, and the blocks add up to the mean of those one-row
        # minibatches.
        model = random_model([6, 4, 3], np.random.default_rng(78))
        batch = (np.random.default_rng(79).random((5, 6)) < 0.5).astype(np.float64)
        k = 7
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", k * sum(model.layer_sizes))
        grad = minibatch_gradient(model, batch, k, np.random.default_rng(80))
        streams = np.random.default_rng(80).spawn(1)[0].spawn(batch.shape[0])
        rows = []
        for row, stream in zip(batch, streams):
            one_block = lambda n, item_floats, rng, run, stream=stream: run(0, 0, n, stream)
            monkeypatch.setattr(training, "_each_block", one_block)
            rows.append(minibatch_gradient(model, row[None], k, None).params)
        assert np.all(np.abs(grad.params - np.mean(rows, axis=0)) < 1e-12)

    def test_memory_bounded_by_block_budget(self, monkeypatch):
        # One row per block: the peak follows the block budget, not batch x K.
        model = random_model([20, 10, 5], np.random.default_rng(81))
        batch = (np.random.default_rng(82).random((64, 20)) < 0.5).astype(np.float64)
        k = 200
        budget = k * sum(model.layer_sizes)
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", budget)
        tracemalloc.start()
        try:
            minibatch_gradient(model, batch, k, np.random.default_rng(83))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (8 * budget + 4 * model.params.size)

    def test_memory_bounded_with_two_lanes(self, monkeypatch):
        # Two rows of K samples fit the budget: one-row blocks run two at a
        # time, each lane adding into its own gradient, and the peak follows
        # the same bound.
        model = random_model([20, 10, 5], np.random.default_rng(81))
        batch = (np.random.default_rng(82).random((64, 20)) < 0.5).astype(np.float64)
        k = 200
        budget = 2 * k * sum(model.layer_sizes)
        monkeypatch.setattr(estimators, "_CPUS", 2)
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", budget)
        tracemalloc.start()
        try:
            minibatch_gradient(model, batch, k, np.random.default_rng(83))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (8 * budget + 4 * model.params.size)

    def test_validation(self):
        model = zero_model([3, 2])
        with pytest.raises(ValueError):
            minibatch_gradient(model, np.zeros((2, 3)), 0, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            minibatch_gradient(model, np.zeros(3), 2, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            minibatch_gradient(model, np.zeros((0, 3)), 2, np.random.default_rng(0))


def reference_adam_update(model, moments, gradient, step_count, config):
    """Adam plus the L1 shrink applied one parameter array at a time.

    ``moments`` is a list of ``(m, v)`` array pairs in ``param_items`` order.
    Returns the new arrays and moments; the flat ``adam_update`` must match
    it bit for bit.
    """
    t = step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    arrays, new_moments = [], []
    for (name, theta), (_, g), (m, v) in zip(model.param_items(), gradient.param_items(), moments):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        step = config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        theta = theta + step
        if name.endswith(".weights") and config.l1_lambda > 0:
            theta = theta - config.learning_rate * config.l1_lambda * np.sign(theta)
        arrays.append(theta)
        new_moments.append((m, v))
    return arrays, new_moments


class TestAdamUpdate:
    @staticmethod
    def constant_gradient(model, rng):
        grad = ModelGradient.zeros_for(model)
        for _, a in grad.param_items():
            a[...] = rng.choice([-0.7, -0.2, 0.3, 0.9], size=a.shape)
        return grad

    def test_matches_per_array_reference_bit_for_bit(self):
        model = random_model([5, 4, 3], np.random.default_rng(89))
        config = TrainConfig(learning_rate=0.02, l1_lambda=0.05)
        rng = np.random.default_rng(90)
        state = AdamState.zeros_for(model)
        ref_model = model
        ref_moments = [(np.zeros_like(a), np.zeros_like(a)) for _, a in model.param_items()]
        for step in range(6):
            grad = ModelGradient.zeros_for(model)
            grad.params[...] = rng.normal(size=grad.params.shape)
            model, state = adam_update(model, state, grad, config)
            arrays, ref_moments = reference_adam_update(ref_model, ref_moments, grad, step, config)
            ref_model = ref_model.with_params(arrays)
            assert state.step_count == step + 1
            for (_, a), (_, b) in zip(model.param_items(), ref_model.param_items()):
                assert_array_equal(a, b)
            m_views = param_views(state.first_moment, model.layer_sizes).values()
            v_views = param_views(state.second_moment, model.layer_sizes).values()
            for m, v, (m_ref, v_ref) in zip(m_views, v_views, ref_moments):
                assert_array_equal(m, m_ref)
                assert_array_equal(v, v_ref)

    def test_first_step_is_signed_learning_rate(self):
        model = random_model([3, 2], np.random.default_rng(80))
        grad = self.constant_gradient(model, np.random.default_rng(81))
        config = TrainConfig(learning_rate=0.05, l1_lambda=0.0)
        new_model, new_state = adam_update(model, AdamState.zeros_for(model), grad, config)
        for (_, before), (_, after), (_, g) in zip(
            model.param_items(), new_model.param_items(), grad.param_items()
        ):
            assert_allclose(after - before, 0.05 * np.sign(g), rtol=1e-6)
        assert new_state.step_count == 1

    def test_zero_gradient_leaves_only_weight_decay(self):
        model = random_model([3, 2], np.random.default_rng(82))
        grad = ModelGradient.zeros_for(model)
        config = TrainConfig(learning_rate=0.1, l1_lambda=0.5)
        new_model, _ = adam_update(model, AdamState.zeros_for(model), grad, config)
        for (name, before), (_, after) in zip(model.param_items(), new_model.param_items()):
            if name.endswith(".weights"):
                assert_array_equal(after, before - 0.1 * 0.5 * np.sign(before))
            else:
                assert_array_equal(after, before)

    def test_zero_learning_rate_is_identity_on_params(self):
        model = random_model([3, 2], np.random.default_rng(83))
        grad = self.constant_gradient(model, np.random.default_rng(84))
        config = TrainConfig(learning_rate=0.0, l1_lambda=1e-3)
        new_model, new_state = adam_update(model, AdamState.zeros_for(model), grad, config)
        for (_, before), (_, after) in zip(model.param_items(), new_model.param_items()):
            assert_array_equal(after, before)
        # moments still advance so a later nonzero phase resumes cleanly
        assert new_state.step_count == 1

    def test_inputs_not_mutated(self):
        model = random_model([3, 2], np.random.default_rng(85))
        saved = [a.copy() for _, a in model.param_items()]
        state = AdamState.zeros_for(model)
        grad = self.constant_gradient(model, np.random.default_rng(86))
        adam_update(model, state, grad, TrainConfig())
        for (_, a), s in zip(model.param_items(), saved):
            assert_array_equal(a, s)
        assert state.step_count == 0
        for m in state.first_moment:
            assert_array_equal(m, np.zeros_like(m))

    def test_peak_memory_is_the_results_and_one_array(self):
        # Only m, v and the new parameters are full-size; the rest of the
        # work goes through one scratch array the size of the largest
        # parameter array (0.43x the vector for these sizes).
        model = random_model([784, 200, 100, 50], np.random.default_rng(91))
        grad = ModelGradient.zeros_for(model)
        grad.params[...] = np.random.default_rng(92).normal(size=grad.params.shape)
        state = AdamState.zeros_for(model)
        tracemalloc.start()
        try:
            adam_update(model, state, grad, TrainConfig(learning_rate=0.01, l1_lambda=0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * model.params.nbytes

    def test_divergent_step_raises(self):
        model = random_model([3, 2], np.random.default_rng(87))
        grad = self.constant_gradient(model, np.random.default_rng(88))
        config = TrainConfig(learning_rate=float("inf"), l1_lambda=0.0)
        with pytest.raises(TrainingDiverged):
            adam_update(model, AdamState.zeros_for(model), grad, config)

    def test_layout_mismatch_rejected(self):
        model = zero_model([3, 2])
        other = zero_model([4, 2])
        grad = ModelGradient.zeros_for(other)
        with pytest.raises(ShapeError):
            adam_update(model, AdamState.zeros_for(model), grad, TrainConfig())


class TestTrain:
    def small_data(self, n=50, d=4, seed=90):
        return (np.random.default_rng(seed).random((n, d)) < 0.4).astype(np.float64)

    def test_learns_bar_patterns(self, bars_training_run):
        _, history, _ = bars_training_run
        assert history[-1]["valid_logptilde"] - history[0]["valid_logptilde"] >= 4.0
        assert history[-1]["ess_pct"] > history[0]["ess_pct"]

    def test_metrics_schema(self):
        model = init_model((4, 3), seed=0)
        data = self.small_data()
        config = TrainConfig(k_train=3, batch_size=25, epochs=2, seed=1)
        _, history = train(model, data, config, valid=data[:10], z_outer=10)
        assert len(history) == 2
        for i, row in enumerate(history):
            assert set(row) == METRIC_KEYS
            assert row["epoch"] == i + 1
            assert row["updates"] == (i + 1) * 2
            assert np.isfinite(row["valid_logptilde"])
            assert row["seconds"] >= 0.0

    def test_missing_validation_set_reports_nan(self):
        model = init_model((4, 3), seed=0)
        config = TrainConfig(k_train=3, batch_size=25, epochs=1, seed=1)
        _, history = train(model, self.small_data(), config, z_outer=10)
        assert math.isnan(history[0]["valid_logptilde"])

    def test_frozen_run_keeps_parameters(self):
        model = init_model((4, 3), seed=2)
        config = TrainConfig(
            k_train=3, learning_rate=0.0, l1_lambda=0.0, batch_size=25, epochs=2, seed=3
        )
        trained, history = train(model, self.small_data(), config, z_outer=10)
        for (_, before), (_, after) in zip(model.param_items(), trained.param_items()):
            assert_array_equal(after, before)
        assert len(history) == 2

    def test_bit_reproducible(self):
        data = self.small_data()
        valid = self.small_data(n=12, seed=91)
        config = TrainConfig(k_train=5, batch_size=10, epochs=3, seed=4)
        model_a, hist_a = train(init_model((4, 3), seed=5), data, config, valid=valid, z_outer=10)
        model_b, hist_b = train(init_model((4, 3), seed=5), data, config, valid=valid, z_outer=10)
        for (_, a), (_, b) in zip(model_a.param_items(), model_b.param_items()):
            assert_array_equal(a, b)
        for ra, rb in zip(hist_a, hist_b):
            for key in METRIC_KEYS - {"seconds"}:
                assert ra[key] == rb[key], key

    def test_counter_continuation(self):
        data = self.small_data()
        model = init_model((4, 3), seed=6)
        config = TrainConfig(k_train=3, batch_size=25, epochs=2, seed=7)
        model, hist1 = train(model, data, config, z_outer=10)
        _, hist2 = train(
            model,
            data,
            config,
            z_outer=10,
            start_epoch=hist1[-1]["epoch"],
            start_updates=hist1[-1]["updates"],
        )
        assert hist2[0]["epoch"] == 3
        assert hist2[0]["updates"] == 6
        assert hist2[-1]["updates"] == 8

    def test_divergence_is_reported_with_position(self):
        model = init_model((4, 3), seed=8)
        config = TrainConfig(k_train=3, batch_size=25, epochs=1, seed=9, learning_rate=float("inf"))
        with pytest.raises(TrainingDiverged, match=r"epoch 1, update 1"):
            train(model, self.small_data(), config, z_outer=10)

    def test_bad_z_outer_is_rejected_before_any_update(self, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "minibatch_gradient", lambda *args: calls.append(args))
        config = TrainConfig(k_train=3, batch_size=25, epochs=1, seed=1)
        with pytest.raises(ValueError, match="k_outer and k_inner must be positive"):
            train(init_model((4, 3), seed=0), self.small_data(), config, z_outer=0)
        assert calls == []

    def test_dataset_validation(self):
        model = init_model((4, 3), seed=0)
        config = TrainConfig(epochs=1)
        with pytest.raises(ShapeError):
            train(model, np.zeros(4), config)
        with pytest.raises(ShapeError):
            train(model, np.zeros((0, 4)), config)
        with pytest.raises(ShapeError):
            train(model, np.zeros((5, 3)), config)
        with pytest.raises(ValueError):
            train(model, np.full((5, 4), 0.5), config)
        with pytest.raises(ShapeError):
            train(model, np.zeros((5, 4)), config, valid=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="0 or 1"):
            train(model, np.zeros((5, 4)), config, valid=np.full((2, 4), 0.5))

    def test_callbacks_see_each_epoch(self):
        model = init_model((4, 3), seed=0)
        config = TrainConfig(k_train=3, batch_size=25, epochs=3, seed=1)
        seen = []
        train(
            model,
            self.small_data(),
            config,
            z_outer=10,
            callbacks=[lambda metrics, m: seen.append((metrics["epoch"], m))],
        )
        assert [e for e, _ in seen] == [1, 2, 3]
        for _, m in seen:
            assert m.layer_sizes == (4, 3)
