"""Importance-weighted likelihood and normalizer estimators."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

from bihm import estimators
from bihm.estimators import (
    EstimateWithError,
    WeightedSampleSet,
    ZEstimateConfig,
    draw_weighted_samples,
    ess,
    ess_pct,
    est_log_p,
    est_log_p_rows,
    est_log_pstar,
    est_log_ptilde,
    est_log_ptilde_rows,
    est_log_z2,
    log_p_from_weights,
    log_ptilde_from_weights,
)
from bihm.model import ShapeError, random_model, zero_model
from bihm.oracle import exact_log_p, exact_log_ptilde, exact_log_z2


class TestEstimateWithError:
    def test_validation(self):
        EstimateWithError(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            EstimateWithError(1.0, 0.0, 0)
        with pytest.raises(ValueError):
            EstimateWithError(1.0, -0.1, 5)
        with pytest.raises(ValueError):
            EstimateWithError(1.0, float("nan"), 5)

    def test_zconfig_validation(self):
        assert ZEstimateConfig(10).k_inner == 1
        with pytest.raises(ValueError):
            ZEstimateConfig(0)
        with pytest.raises(ValueError):
            ZEstimateConfig(10, 0)


class TestWeightedSampleSet:
    def test_zero_model_weights(self):
        # p(x,h) = 1/8 and q(h|x) = 1/2 for every configuration, so every
        # log-weight is ln(1/2) and the normalized weights are uniform.
        model = zero_model([2, 1])
        ws = draw_weighted_samples(model, np.array([1.0, 0.0]), 5, np.random.default_rng(0))
        assert ws.num_samples == 5
        assert np.all(np.abs(ws.log_w - math.log(0.5)) < 1e-12)
        assert np.all(np.abs(ws.log_w_normalized - (-math.log(5))) < 1e-12)
        assert abs(np.exp(ws.log_w_normalized).sum() - 1.0) < 1e-12

    def test_single_sample_normalizes_to_one(self):
        model = zero_model([2, 1])
        ws = draw_weighted_samples(model, np.zeros(2), 1, np.random.default_rng(1))
        assert_array_equal(ws.log_w_normalized, [0.0])

    def test_normalized_weights_sum_to_one(self):
        model = random_model([4, 3, 2], np.random.default_rng(2))
        ws = draw_weighted_samples(model, np.array([1.0, 0.0, 1.0, 1.0]), 64, np.random.default_rng(3))
        assert abs(np.exp(ws.log_w_normalized).sum() - 1.0) < 1e-12

    def test_empty_rejected(self):
        model = zero_model([2, 1])
        with pytest.raises(ValueError):
            draw_weighted_samples(model, np.zeros(2), 0, np.random.default_rng(0))


class TestExactlyUniformCase:
    """With p = q every estimator is exact and its standard error vanishes."""

    def test_point_estimates(self):
        model = zero_model([2, 1])
        x = np.array([1.0, 0.0])
        rng = np.random.default_rng(7)
        pt = est_log_ptilde(model, x, 100, rng)
        p = est_log_p(model, x, 100, rng)
        ps = est_log_pstar(model, x, 100, 0.0, rng)
        for e in (pt, p, ps):
            assert abs(e.value - math.log(0.25)) < 1e-12
            assert e.std_error == 0.0
            assert e.num_samples == 100

    def test_normalizer_exactly_zero(self, monkeypatch):
        # One block, then ten blocks of five outer samples (15 floats each).
        model = zero_model([3, 2])
        for budget in (estimators._BLOCK_FLOATS, 75):
            monkeypatch.setattr(estimators, "_BLOCK_FLOATS", budget)
            est = est_log_z2(model, ZEstimateConfig(50, 3), np.random.default_rng(8))
            assert est.value == 0.0
            assert est.std_error == 0.0
            assert est.num_samples == 150

    def test_single_sample_has_zero_se(self):
        model = random_model([3, 2], np.random.default_rng(9))
        est = est_log_ptilde(model, np.zeros(3), 1, np.random.default_rng(10))
        assert est.std_error == 0.0
        assert est.num_samples == 1
        z = est_log_z2(model, ZEstimateConfig(1, 4), np.random.default_rng(11))
        assert z.std_error == 0.0


class TestConvergence:
    def setup_method(self):
        self.model = random_model([4, 3, 2], np.random.default_rng(7))
        self.x = np.array([1.0, 0.0, 1.0, 1.0])
        self.exact_pt = exact_log_ptilde(self.model, self.x)
        self.exact_p = exact_log_p(self.model, self.x)
        self.exact_z2 = exact_log_z2(self.model)

    def test_large_sample_agreement(self):
        rng = np.random.default_rng(52)
        pt = est_log_ptilde(self.model, self.x, 100_000, rng)
        p = est_log_p(self.model, self.x, 100_000, rng)
        z = est_log_z2(self.model, ZEstimateConfig(100_000), rng)
        assert abs(pt.value - self.exact_pt) <= 3 * pt.std_error
        assert abs(p.value - self.exact_p) <= 3 * p.std_error
        assert abs(z.value - self.exact_z2) <= 3 * z.std_error

    def test_error_bars_have_close_to_nominal_coverage(self):
        rng = np.random.default_rng(50)
        hits = {"pt": 0, "p": 0, "z": 0}
        trials = 100
        for _ in range(trials):
            pt = est_log_ptilde(self.model, self.x, 2000, rng)
            p = est_log_p(self.model, self.x, 2000, rng)
            z = est_log_z2(self.model, ZEstimateConfig(2000), rng)
            hits["pt"] += abs(pt.value - self.exact_pt) <= 3 * pt.std_error
            hits["p"] += abs(p.value - self.exact_p) <= 3 * p.std_error
            hits["z"] += abs(z.value - self.exact_z2) <= 3 * z.std_error
        for name, count in hits.items():
            assert count >= 95, name

    def test_blocked_normalizer_agrees_with_exact(self, monkeypatch):
        # A 4-3-2 model takes 9 floats per outer sample, so this budget splits
        # 20000 outer samples into 20 blocks of 1000.
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", 9000)
        blocks = []
        original = estimators.p_pass

        def recording(model, x=None, layers=None, k=1, **kwargs):
            if layers is None:
                blocks.append(k)
            return original(model, x, layers, k=k, **kwargs)

        monkeypatch.setattr(estimators, "p_pass", recording)
        z = est_log_z2(self.model, ZEstimateConfig(20_000), np.random.default_rng(53))
        assert len(blocks) >= 10 and sum(blocks) == 20_000
        assert abs(z.value - self.exact_z2) <= 3 * z.std_error

    def test_log_normalizer_estimate_underestimates(self):
        # The estimate is unbiased in the linear domain, so its log sits
        # below the true value on average (visible at small sample counts).
        rng = np.random.default_rng(51)
        reps = np.array(
            [est_log_z2(self.model, ZEstimateConfig(10), rng).value for _ in range(200)]
        )
        sem = reps.std(ddof=1) / math.sqrt(len(reps))
        assert reps.mean() < self.exact_z2 - 2 * sem

    def test_likelihood_estimate_rises_with_sample_count(self):
        model = random_model([6, 4, 3], np.random.default_rng(40), weight_scale=1.5)
        x = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        rng = np.random.default_rng(41)
        lo = np.array([est_log_ptilde(model, x, 10, rng).value for _ in range(100)])
        hi = np.array([est_log_ptilde(model, x, 1000, rng).value for _ in range(100)])
        assert hi.mean() - lo.mean() > 0.1


class TestRowBatchedEstimates:
    def test_matches_exact_within_error(self):
        model = random_model([4, 3, 2], np.random.default_rng(12))
        xs = (np.random.default_rng(13).random((8, 4)) < 0.5).astype(np.float64)
        values, ses = est_log_ptilde_rows(model, xs, 20_000, np.random.default_rng(14))
        assert values.shape == ses.shape == (8,)
        for i in range(8):
            assert abs(values[i] - exact_log_ptilde(model, xs[i])) <= 4 * ses[i]
        values_p, ses_p = est_log_p_rows(model, xs, 20_000, np.random.default_rng(15))
        for i in range(8):
            assert abs(values_p[i] - exact_log_p(model, xs[i])) <= 4 * ses_p[i]

    def test_chunked_values_stay_close_for_deep_models(self, monkeypatch):
        # Each row block draws from its own spawned stream, so the block
        # split changes the draws, for one latent layer as for several; the
        # estimates remain statistically equivalent.
        default = estimators._BLOCK_FLOATS
        for sizes, seeds in (([4, 2, 2], (16, 17, 18)), ([5, 3], (41, 42, 9))):
            model = random_model(sizes, np.random.default_rng(seeds[0]))
            xs = (np.random.default_rng(seeds[1]).random((12, sizes[0])) < 0.5).astype(np.float64)
            monkeypatch.setattr(estimators, "_BLOCK_FLOATS", default)
            v2, s2 = est_log_ptilde_rows(model, xs, 5000, np.random.default_rng(seeds[2]))
            monkeypatch.setattr(estimators, "_BLOCK_FLOATS", 200)
            v1, s1 = est_log_ptilde_rows(model, xs, 5000, np.random.default_rng(seeds[2]))
            assert np.all(np.abs(v1 - v2) <= 4 * np.hypot(s1, s2))

    def test_rejects_one_dimensional_input(self):
        model = zero_model([3, 2])
        with pytest.raises(ShapeError):
            est_log_ptilde_rows(model, np.zeros(3), 4, np.random.default_rng(0))


class TestSampleTiles:
    """A row's samples are drawn in tiles; single vectors are one-row batches."""

    def setup_method(self):
        self.model = random_model([4, 3, 2], np.random.default_rng(7))
        self.x = np.array([1.0, 0.0, 1.0, 1.0])

    def test_single_vector_is_row_zero_of_the_rows_estimate(self):
        for one, rows in ((est_log_ptilde, est_log_ptilde_rows), (est_log_p, est_log_p_rows)):
            est = one(self.model, self.x, 500, np.random.default_rng(30))
            values, ses = rows(self.model, self.x[None], 500, np.random.default_rng(30))
            assert est.value == values[0]
            assert est.std_error == ses[0]
            assert est.num_samples == 500

    def test_tiled_rows_agree_with_exact(self, monkeypatch):
        # 9 floats per sample: tiles of 1000 samples, 20 to a row.
        k = 20_000
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", 9 * 1000)
        assert len(estimators._spans(k, sum(self.model.layer_sizes))) == 20
        xs = np.array([self.x, [0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        values, ses = est_log_ptilde_rows(self.model, xs, k, np.random.default_rng(31))
        for i, row in enumerate(xs):
            assert abs(values[i] - exact_log_ptilde(self.model, row)) <= 3 * ses[i]

    def test_tiled_normalizer_draws_each_outer_sample_once(self, monkeypatch):
        # Tiles of 10 inner samples, 5 to each outer sample.
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", 9 * 10)
        assert len(estimators._spans(50, sum(self.model.layer_sizes))) == 5
        outer = []
        original = estimators.p_pass

        def recording(model, x=None, layers=None, k=1, **kwargs):
            if layers is None:
                outer.append(k)
            return original(model, x, layers, k=k, **kwargs)

        monkeypatch.setattr(estimators, "p_pass", recording)
        z = est_log_z2(self.model, ZEstimateConfig(2000, 50), np.random.default_rng(32))
        assert sum(outer) == 2000
        assert z.num_samples == 100_000
        assert abs(z.value - exact_log_z2(self.model)) <= 3 * z.std_error


class TestTiledMemory:
    """``est_log_*`` memory follows the tile budget, not the sample count.

    A tile's peak is about 6x the floats of its sample arrays, so the bound
    allows 8x the budget, plus 4 floats per sample for the per-sample (or
    per-outer-sample) log terms and their statistics.
    """

    budget = 2**14
    k = 100_000

    def peak(self, monkeypatch, call):
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", self.budget)
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def bound(self):
        return 8 * (8 * self.budget + 4 * self.k)

    @pytest.mark.parametrize("estimate", [est_log_ptilde, est_log_p])
    def test_single_vector_estimators(self, monkeypatch, estimate):
        model = random_model([20, 10, 5], np.random.default_rng(33))
        x = (np.random.default_rng(34).random(20) < 0.5).astype(np.float64)
        peak = self.peak(monkeypatch, lambda: estimate(model, x, self.k, np.random.default_rng(35)))
        assert peak < self.bound()

    def test_normalizer(self, monkeypatch):
        model = random_model([20, 10, 5], np.random.default_rng(36))
        config = ZEstimateConfig(self.k)
        peak = self.peak(monkeypatch, lambda: est_log_z2(model, config, np.random.default_rng(37)))
        assert peak < self.bound()


class TestSharedSampleInequality:
    """On one weight vector the marginal estimate dominates the ptilde estimate."""

    def test_never_violated_on_random_weights(self):
        rng = np.random.default_rng(60)
        for _ in range(2500):
            k = int(rng.integers(1, 65))
            scale = float(rng.uniform(0.01, 3.0))
            log_w = rng.normal(scale=scale, size=k) - rng.uniform(0, 50)
            v_pt = log_ptilde_from_weights(log_w).value
            v_p = log_p_from_weights(log_w).value
            assert v_p >= v_pt

    def test_equal_weights_give_equality(self):
        log_w = np.full(16, -3.25)
        assert log_p_from_weights(log_w).value == log_ptilde_from_weights(log_w).value

    def test_single_weight_gives_equality(self):
        log_w = np.array([-1.7])
        assert log_p_from_weights(log_w).value == log_ptilde_from_weights(log_w).value


class TestPstarComposition:
    def test_float_normalizer_treated_as_exact(self):
        model = random_model([3, 2], np.random.default_rng(20))
        x = np.array([1.0, 1.0, 0.0])
        a = est_log_pstar(model, x, 50, -0.5, np.random.default_rng(21))
        b = est_log_ptilde(model, x, 50, np.random.default_rng(21))
        assert a.value == b.value + 0.5
        assert a.std_error == b.std_error

    def test_estimate_normalizer_combines_in_quadrature(self):
        model = random_model([3, 2], np.random.default_rng(20))
        x = np.array([1.0, 1.0, 0.0])
        z = EstimateWithError(-0.5, 0.02, 10)
        a = est_log_pstar(model, x, 50, z, np.random.default_rng(21))
        b = est_log_ptilde(model, x, 50, np.random.default_rng(21))
        assert a.value == b.value + 0.5
        assert_allclose(a.std_error, math.hypot(b.std_error, 0.02), rtol=1e-15)


class TestDegenerateWeights:
    def test_all_zero_weights_warn(self):
        log_w = np.full(4, -np.inf)
        with pytest.warns(RuntimeWarning):
            est = log_ptilde_from_weights(log_w)
        assert est.value == -np.inf
        assert est.std_error == 0.0

    def test_nan_and_positive_inf_rejected(self):
        with pytest.raises(ValueError):
            log_ptilde_from_weights(np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            log_p_from_weights(np.array([0.0, np.inf]))


class TestLogSumExp:
    @pytest.mark.parametrize("shape", [(1,), (7,), (1000,), (5, 1), (3, 40), (64, 9)])
    def test_matches_scipy_over_the_last_axis(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(0.0, 30.0, shape) - 500.0
        assert_allclose(estimators._logsumexp(a), logsumexp(a, axis=-1), rtol=1e-14, atol=0)

    def test_four_quarters_sum_to_exactly_one(self):
        # exact_log_z2(zero_model([2, 1])) == 0.0 rests on this.
        assert estimators._logsumexp(np.full(4, math.log(0.25))) == 0.0


class TestEffectiveSampleSize:
    def test_equal_weights_give_exactly_k(self):
        for k in (1, 2, 17, 1000):
            assert ess(np.full(k, -7.3)) == float(k)

    def test_shift_invariance(self):
        rng = np.random.default_rng(61)
        log_w = rng.normal(size=200) * 3.0
        base = ess(log_w)
        for c in (-500.0, 123.456, 1e3):
            assert abs(ess(log_w + c) - base) <= 1e-9 * len(log_w)

    def test_single_dominant_weight(self):
        log_w = np.array([0.0, -np.inf, -np.inf, -np.inf])
        assert ess(log_w) == 1.0

    def test_bounds_on_random_vectors(self):
        rng = np.random.default_rng(62)
        for _ in range(500):
            k = int(rng.integers(1, 100))
            log_w = rng.normal(scale=rng.uniform(0.1, 10.0), size=k)
            value = ess(log_w)
            assert 1.0 <= value <= float(k)

    def test_all_zero_weights_warn(self):
        with pytest.warns(RuntimeWarning):
            assert ess(np.full(3, -np.inf)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ess(np.array([]))
        with pytest.raises(ValueError):
            ess(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            ess(np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            ess(np.array([0.0, np.inf]))

    def test_percentage(self):
        assert ess_pct(np.full(8, -1.0)) == 100.0
        log_w = np.array([0.0, -np.inf])
        assert ess_pct(log_w) == 50.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50.0, max_value=0.0, allow_nan=False),
            min_size=1,
            max_size=64,
        ),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    )
    def test_bounds_and_shift_property(self, values, shift):
        log_w = np.asarray(values, dtype=np.float64)
        value = ess(log_w)
        assert 1.0 <= value <= float(log_w.size)
        assert abs(ess(log_w + shift) - value) <= 1e-9 * log_w.size
