"""Exhaustive-enumeration oracle, checked against a plain linear-domain reference."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import support
import bihm.estimators as estimators
from bihm.model import ShapeError, random_model, zero_model
from bihm.oracle import (
    MAX_ENUM_BITS,
    EnumerationLimitError,
    _log_p,
    bit_matrix,
    config_index,
    exact_bhattacharyya,
    exact_conditional_pstar,
    exact_grad_log_ptilde,
    exact_log_p,
    exact_log_pstar,
    exact_log_ptilde,
    exact_log_ptilde_by_x,
    exact_log_z2,
)

REFERENCE_SIZES = [
    ([2, 1], 0),
    ([3, 2], 1),
    ([2, 2, 2], 2),
    ([4, 3, 2], 3),
]


class TestBitMatrix:
    def test_three_bit_order(self):
        expected = [
            [0, 0, 0],
            [0, 0, 1],
            [0, 1, 0],
            [0, 1, 1],
            [1, 0, 0],
            [1, 0, 1],
            [1, 1, 0],
            [1, 1, 1],
        ]
        assert_array_equal(bit_matrix(3), np.array(expected, dtype=np.float64))

    def test_matches_reference_enumeration(self):
        rows = bit_matrix(4)
        for i, bits in enumerate(support.all_bit_tuples(4)):
            assert tuple(int(b) for b in rows[i]) == bits

    def test_config_index_inverse(self):
        rows = bit_matrix(5)
        for i in range(32):
            assert config_index(rows[i]) == i

    def test_start_stop_slices(self):
        full = bit_matrix(4)
        assert_array_equal(bit_matrix(4, start=3, stop=11), full[3:11])
        assert_array_equal(bit_matrix(4, start=15), full[15:])
        assert bit_matrix(0).shape == (1, 0)


class TestAgainstLinearReference:
    @pytest.mark.parametrize("sizes,seed", REFERENCE_SIZES)
    def test_all_quantities(self, sizes, seed):
        model = random_model(sizes, np.random.default_rng(seed))
        by_x = exact_log_ptilde_by_x(model)
        z2 = exact_log_z2(model)
        assert abs(z2 - math.log(support.z_squared(model))) < 1e-10
        for i, x_bits in enumerate(support.all_bit_tuples(sizes[0])):
            x = np.array(x_bits, dtype=np.float64)
            assert abs(by_x[i] - math.log(support.ptilde(model, x_bits))) < 1e-10
            assert abs(exact_log_ptilde(model, x) - by_x[i]) < 1e-12
            assert abs(exact_log_p(model, x) - math.log(support.p_marginal(model, x_bits))) < 1e-10
            assert abs(exact_log_pstar(model, x) - math.log(support.pstar(model, x_bits))) < 1e-10

    def test_bhattacharyya_sign(self):
        model = random_model([3, 2], np.random.default_rng(4))
        assert_allclose(exact_bhattacharyya(model), -0.5 * exact_log_z2(model), rtol=1e-15)
        assert exact_bhattacharyya(model) >= 0.0


class TestFrozenValues:
    def test_reference_model(self):
        model = random_model([4, 3, 2], np.random.default_rng(7))
        x = np.array([1.0, 0.0, 1.0, 1.0])
        assert abs(exact_log_ptilde(model, x) - (-2.6277118489623104)) < 1e-12
        assert abs(exact_log_p(model, x) - (-1.905339213768003)) < 1e-12
        assert abs(exact_log_z2(model) - (-0.6971535614786928)) < 1e-12


class TestBounds:
    def test_ten_random_models(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            n_layers = int(rng.integers(2, 4))
            sizes = [int(rng.integers(1, 5)) for _ in range(n_layers)]
            model = random_model(sizes, rng, weight_scale=float(rng.uniform(0.3, 2.0)))
            z2 = exact_log_z2(model)
            assert z2 <= 1e-12
            by_x = exact_log_ptilde_by_x(model)
            for i, x_bits in enumerate(support.all_bit_tuples(sizes[0])):
                x = np.array(x_bits, dtype=np.float64)
                lp = exact_log_p(model, x)
                lps = by_x[i] - z2
                assert by_x[i] <= lp + 1e-12
                assert by_x[i] <= lps + 1e-12
                assert abs(exact_log_pstar(model, x) - (by_x[i] + 2 * exact_bhattacharyya(model))) < 1e-10

    def test_zero_model_tightness(self):
        # With p and q identical the overlap is perfect and log Z^2 is zero.
        model = zero_model([2, 1])
        assert exact_log_z2(model) == 0.0
        x = np.array([1.0, 0.0])
        assert abs(exact_log_ptilde(model, x) - math.log(0.25)) < 1e-12
        assert abs(exact_log_p(model, x) - math.log(0.25)) < 1e-12


class TestGradient:
    def test_finite_differences(self):
        model = random_model([3, 2, 2], np.random.default_rng(31))
        x = np.array([1.0, 0.0, 1.0])
        grad = exact_grad_log_ptilde(model, x)
        eps = 1e-5
        params = [a.copy() for _, a in model.param_items()]
        grads = dict(grad.param_items())
        for idx, (name, _) in enumerate(model.param_items()):
            flat = params[idx].reshape(-1)
            gflat = grads[name].reshape(-1)
            for pos in range(flat.size):
                orig = flat[pos]
                flat[pos] = orig + eps
                hi = exact_log_ptilde(model.with_params(params), x)
                flat[pos] = orig - eps
                lo = exact_log_ptilde(model.with_params(params), x)
                flat[pos] = orig
                fd = (hi - lo) / (2 * eps)
                scale = max(abs(fd), abs(gflat[pos]), 1e-8)
                assert abs(fd - gflat[pos]) / scale < 1e-6, name

    def test_zero_model_antisymmetry(self):
        # Flipping every visible bit of a symmetric model negates the gradient.
        model = zero_model([3, 2])
        x = np.array([1.0, 1.0, 0.0])
        g1 = dict(exact_grad_log_ptilde(model, x).param_items())
        g2 = dict(exact_grad_log_ptilde(model, 1.0 - x).param_items())
        for name in g1:
            assert np.all(np.abs(g1[name] + g2[name]) < 1e-12), name

    def test_rejects_batch_input(self):
        model = zero_model([2, 1])
        with pytest.raises(ShapeError):
            exact_grad_log_ptilde(model, np.zeros((3, 2)))


class TestConditionals:
    def test_zero_model_uniform(self):
        model = zero_model([2, 2])
        probs = exact_conditional_pstar(model, None)
        assert probs.shape == (16,)
        assert_allclose(probs, 1.0 / 16.0, atol=1e-12)

    def test_sums_to_one(self):
        model = random_model([3, 2, 2], np.random.default_rng(32))
        for clamped in (
            None,
            [np.array([1, 0, 1]), None, None],
            [np.array([-1, 0, -1]), np.array([1, -1]), None],
        ):
            probs = exact_conditional_pstar(model, clamped)
            assert abs(probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "clamped",
        [
            [np.array([1, 0, 1]), None, None],
            [np.array([-1, 0, -1]), np.array([1, -1]), None],
            None,
        ],
    )
    def test_matches_reference(self, clamped):
        model = random_model([3, 2, 2], np.random.default_rng(33))
        probs = exact_conditional_pstar(model, clamped)
        expected = support.conditional_pstar(
            model, [None if c is None else list(c) for c in clamped] if clamped else None
        )
        assert_allclose(probs, expected, atol=1e-10)

    def test_free_bit_cap(self):
        model = zero_model([10, 8])
        with pytest.raises(EnumerationLimitError):
            exact_conditional_pstar(model, None)
        # clamping enough bits brings it under the cap
        clamp = np.zeros(10, dtype=np.int8)
        probs = exact_conditional_pstar(model, [clamp, None])
        assert probs.shape == (256,)

    def test_clamp_validation(self):
        model = zero_model([3, 2])
        with pytest.raises(ShapeError):
            exact_conditional_pstar(model, [np.zeros(4), None])
        with pytest.raises(ShapeError):
            exact_conditional_pstar(model, [np.zeros(3)])
        for bad in (2, 0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="clamp entries must be 0, 1 or -1"):
                exact_conditional_pstar(model, [np.array([0, 1, bad]), None])


class TestEnumerationLimits:
    def test_total_bit_cap(self):
        # z2 enumerates visibles and latents together; ptilde for a fixed x
        # enumerates only the latents, so its cap binds on latent bits alone.
        model = zero_model([20, 10])
        with pytest.raises(EnumerationLimitError):
            exact_log_z2(model)
        wide_latent = zero_model([1, 13, 13])
        with pytest.raises(EnumerationLimitError):
            exact_log_ptilde(wide_latent, np.zeros(1))

    def test_one_bit_past_the_cap_raises_everywhere(self):
        over = MAX_ENUM_BITS + 1
        half = over // 2
        wide_latent = zero_model([2, half, over - half])
        x = np.zeros(2)
        for call in (exact_log_ptilde, exact_log_p, exact_grad_log_ptilde):
            with pytest.raises(EnumerationLimitError):
                call(wide_latent, x)
        # visible and latent bits together
        wide_total = zero_model([5, over - 5])
        for call in (exact_log_ptilde_by_x, exact_log_z2):
            with pytest.raises(EnumerationLimitError):
                call(wide_total)
        # few free bits, but scoring each visible row sums over the latents
        clamped = [None, np.zeros(half, dtype=np.int8), np.zeros(over - half, dtype=np.int8)]
        with pytest.raises(EnumerationLimitError):
            exact_conditional_pstar(wide_latent, clamped)


class TestBlocking:
    def test_small_blocks_give_identical_values(self, monkeypatch):
        model = random_model([3, 2, 2], np.random.default_rng(36))
        x = np.array([1.0, 1.0, 0.0])
        free_visibles = [np.array([-1, 0, -1]), np.array([1, -1]), None]

        def values():
            return (
                exact_log_ptilde(model, x),
                exact_log_p(model, x),
                exact_log_z2(model),
                exact_grad_log_ptilde(model, x).params,
                exact_conditional_pstar(model, free_visibles),
                _log_p(model, None),
            )

        reference = values()
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", 7)
        blocked = values()
        for a, b in zip(reference, blocked):
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize(
        "call,sizes",
        [
            (exact_log_ptilde, [2, 8, 8]),
            (exact_log_p, [2, 8, 8]),
            (exact_grad_log_ptilde, [2, 8, 8]),
            (exact_log_ptilde_by_x, [6, 5, 4]),
            (exact_conditional_pstar, [40, 6, 6]),
        ],
    )
    def test_peak_memory_follows_the_block_budget(self, monkeypatch, call, sizes):
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", 2**12)
        model = random_model(sizes, np.random.default_rng(37))
        if call is exact_log_ptilde_by_x:
            args = (model,)
        elif call is exact_conditional_pstar:
            # The visibles clamped: 12 free latent bits.
            args = (model, [np.ones(sizes[0]), None, None])
        else:
            args = (model, np.ones(sizes[0]))
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * estimators._BLOCK_FLOATS
