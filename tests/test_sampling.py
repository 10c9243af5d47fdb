"""Gibbs chains over the combined model and mask-constrained inpainting."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import bihm.estimators as estimators
from bihm.model import (
    BeliefLayer,
    BihmModel,
    FactorizedPrior,
    ShapeError,
    bernoulli_step,
    random_model,
    sigmoid,
    zero_model,
)
from bihm.oracle import exact_conditional_pstar, exact_log_ptilde
from bihm.sampling import (
    _LOGIT_CLIP,
    GibbsConfig,
    _categorical_rows,
    _log1m_sum,
    _update_chains,
    _visible_log_terms,
    expected_visible,
    gibbs_sample_chains,
    inpaint_chains,
)


def joint_codes(chains):
    """Lexicographic state index for each chain row over (x, h1, ..., hL)."""
    bits = np.concatenate(chains, axis=1)
    weights = 2.0 ** np.arange(bits.shape[1] - 1, -1, -1)
    return (bits @ weights).astype(np.int64)


def empirical_conditional(model, clamps, l, n, proposals, rng, block=2000):
    """Frequencies of layer ``l`` (0 = the visibles) after one resampling step, neighbors fixed."""
    d = model.layer_sizes[l]
    config = GibbsConfig(num_sweeps=1, proposals_per_step=proposals)
    counts = np.zeros(1 << d)
    code_w = 2.0 ** np.arange(d - 1, -1, -1)
    for start in range(0, n, block):
        rows = min(block, n - start)
        chains = [
            np.tile(c, (rows, 1)) if c is not None else np.zeros((rows, model.layer_sizes[i]))
            for i, c in enumerate(clamps)
        ]
        _update_chains(model, chains, l, config, rng)
        counts += np.bincount((chains[l] @ code_w).astype(np.int64), minlength=1 << d)
    return counts / n


class TestConfigAndState:
    def test_config_defaults_and_validation(self):
        config = GibbsConfig()
        assert (config.num_sweeps, config.proposals_per_step) == (10, 25)
        for bad in (
            dict(num_sweeps=0),
            dict(proposals_per_step=0),
        ):
            with pytest.raises(ValueError):
                GibbsConfig(**bad)


class TestResampling:
    def test_shift_invariant_selection(self):
        rng = np.random.default_rng(110)
        log_w = rng.normal(size=(1000, 8))
        a = _categorical_rows(log_w, np.random.default_rng(111))
        b = _categorical_rows(log_w + 123.0, np.random.default_rng(111))
        c = _categorical_rows(log_w - 500.0, np.random.default_rng(111))
        assert_array_equal(a, b)
        assert_array_equal(a, c)

    def test_deterministic_selection_when_one_weight_dominates(self):
        log_w = np.full((50, 4), -1e6)
        winners = np.random.default_rng(112).integers(4, size=50)
        log_w[np.arange(50), winners] = 0.0
        picks = _categorical_rows(log_w, np.random.default_rng(113))
        assert_array_equal(picks, winners)

    def test_single_proposal_update_is_deterministic_given_rng(self):
        model = random_model([3, 2], np.random.default_rng(114))
        config = GibbsConfig(num_sweeps=1, proposals_per_step=1)

        def update():
            chains = [np.array([[1.0, 0.0, 1.0]]), np.zeros((1, 2))]
            _update_chains(model, chains, 1, config, np.random.default_rng(115))
            return chains[1]

        a, b = update(), update()
        assert a.shape == (1, 2)
        assert_array_equal(a, b)
        assert set(np.unique(a)) <= {0.0, 1.0}


class TestUniformModel:
    """With p = q uniform, every update is exactly uniform at any proposal count."""

    def test_chain_joint_is_uniform(self):
        model = zero_model([3, 2])
        config = GibbsConfig(num_sweeps=2, proposals_per_step=5)
        chains = gibbs_sample_chains(model, 4000, config, np.random.default_rng(120))
        counts = np.bincount(joint_codes(chains), minlength=32)
        expected = 4000 / 32
        chi2 = np.sum((counts - expected) ** 2 / expected)
        # 31 degrees of freedom; 61.1 is the 0.1% point
        assert chi2 < 61.1

    def test_hidden_update_is_uniform(self):
        model = zero_model([3, 2])
        emp = empirical_conditional(
            model,
            [np.array([1.0, 0.0, 1.0]), None],
            l=1,
            n=100_000,
            proposals=3,
            rng=np.random.default_rng(121),
        )
        expected = 100_000 / 4
        chi2 = np.sum((emp * 100_000 - expected) ** 2 / expected)
        # 3 degrees of freedom; 16.3 is the 0.1% point
        assert chi2 < 16.3


class TestHiddenConditionalAccuracy:
    """One resampling step targets the exact conditional of the combined model.

    At the visibles it does so only up to the ptilde estimate's error.
    """

    def test_middle_layer(self):
        model = random_model([3, 2, 2], np.random.default_rng(100), weight_scale=1.2)
        x = np.array([1.0, 0.0, 1.0])
        h2 = np.array([1.0, 0.0])
        exact = exact_conditional_pstar(model, [x, None, h2])
        n = 60_000
        emp = empirical_conditional(
            model, [x, None, h2], l=1, n=n, proposals=200, rng=np.random.default_rng(101)
        )
        se = np.sqrt(exact * (1.0 - exact) / n)
        assert np.all(np.abs(emp - exact) <= 4.0 * se + 1.0 / n)
        assert 0.5 * np.abs(emp - exact).sum() <= 0.02

    def test_top_layer(self):
        # The top layer has no recognition term above it; the prior fills in.
        model = random_model([3, 2, 2], np.random.default_rng(100), weight_scale=1.2)
        x = np.array([1.0, 0.0, 1.0])
        h1 = np.array([0.0, 1.0])
        exact = exact_conditional_pstar(model, [x, h1, None])
        n = 60_000
        emp = empirical_conditional(
            model, [x, h1, None], l=2, n=n, proposals=150, rng=np.random.default_rng(102)
        )
        se = np.sqrt(exact * (1.0 - exact) / n)
        assert np.all(np.abs(emp - exact) <= 4.0 * se + 1.0 / n)
        assert 0.5 * np.abs(emp - exact).sum() <= 0.02

    def test_visible_layer(self):
        # p alone proposes, and an estimated ptilde stands in for the q factor.
        model = random_model([3, 2, 2], np.random.default_rng(100), weight_scale=1.2)
        h1 = np.array([0.0, 1.0])
        h2 = np.array([1.0, 0.0])
        exact = exact_conditional_pstar(model, [None, h1, h2])
        n = 20_000
        emp = empirical_conditional(
            model, [None, h1, h2], l=0, n=n, proposals=30, rng=np.random.default_rng(103)
        )
        se = np.sqrt(exact * (1.0 - exact) / n)
        assert np.all(np.abs(emp - exact) <= 4.0 * se + 1.0 / n)
        assert 0.5 * np.abs(emp - exact).sum() <= 0.03


class TestChainStationarity:
    def test_joint_distribution_matches_combined_model(self):
        model = random_model([3, 2], np.random.default_rng(103))
        exact = exact_conditional_pstar(model, None)
        config = GibbsConfig(num_sweeps=5, proposals_per_step=10)
        chains = gibbs_sample_chains(model, 20_000, config, np.random.default_rng(104))
        emp = np.bincount(joint_codes(chains), minlength=32) / 20_000
        assert 0.5 * np.abs(emp - exact).sum() <= 0.05

    def test_shapes_and_binary_output(self):
        model = zero_model([4, 3, 2])
        config = GibbsConfig(num_sweeps=1, proposals_per_step=3)
        chains = gibbs_sample_chains(model, 7, config, np.random.default_rng(122))
        assert [a.shape for a in chains] == [(7, 4), (7, 3), (7, 2)]
        for a in chains:
            assert set(np.unique(a)) <= {0.0, 1.0}

    def test_deterministic_given_seed(self):
        model = random_model([3, 2], np.random.default_rng(123))
        config = GibbsConfig(num_sweeps=2, proposals_per_step=4)
        a = gibbs_sample_chains(model, 11, config, np.random.default_rng(124))
        b = gibbs_sample_chains(model, 11, config, np.random.default_rng(124))
        for x, y in zip(a, b):
            assert_array_equal(x, y)
        with pytest.raises(ValueError):
            gibbs_sample_chains(model, 0, config, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "sizes, config, budget, count",
        [
            pytest.param([20, 10, 5], GibbsConfig(1, 5), 2**12, 8000, id="sizes0-config0"),
            # 10 proposals on narrow layers: the visible update's (chains,
            # proposals, shared samples) cross terms dominate a block's
            # work, so this case fails unless the shared ptilde estimate
            # cuts its chains into spans of its own.
            pytest.param([8, 5, 4], GibbsConfig(1, 10), 2**12, 8000, id="sizes1-config1"),
            # The same at half the budget: a chain's 40 shared samples of 27
            # floats, 1080, exceed a lane's 1024-float share, so they are
            # drawn in sample tiles, each chain a span of its own.
            pytest.param([8, 5, 4], GibbsConfig(1, 10), 2**11, 2000, id="sample tiles"),
        ],
    )
    def test_peak_memory_holds_the_output_once(self, monkeypatch, sizes, config, budget, count):
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", budget)
        model = random_model(sizes, np.random.default_rng(129))
        tracemalloc.start()
        try:
            chains = gibbs_sample_chains(model, count, config, np.random.default_rng(130))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(a.nbytes for a in chains)
        assert peak < output + 16 * 8 * budget


class TestChainBlocks:
    """How :func:`bihm.estimators._each_block` cuts the chains of
    :func:`bihm.sampling._run_chains`, and every other loop, into blocks."""

    # 30 candidate floats per chain at a 2000-float budget: 33 chains to a
    # lane's share, so counts up to 33 fit one share and 200 does not.
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 200])
    def test_blocks_cover_the_chains_within_a_share_on_either_lane_count(self, monkeypatch, count):
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", 2000)
        share = 2000 // (estimators._IN_FLIGHT * 30)
        splits = []
        for cpus in (1, 2):
            monkeypatch.setattr(estimators, "_CPUS", cpus)
            ran = []
            estimators._each_block(count, 30, np.random.default_rng(0), lambda *block: ran.append(block[:3]))
            splits.append(sorted(ran, key=lambda block: block[1]))
        blocks = splits[0]
        assert splits[1] == blocks
        assert [i for _, a, b in blocks for i in range(a, b)] == list(range(count))
        assert all(a < b for _, a, b in blocks)
        assert len(blocks) >= min(count, estimators._IN_FLIGHT)
        assert max(b - a for _, a, b in blocks) <= share
        assert [lane for lane, _, _ in blocks] == [i % estimators._IN_FLIGHT for i in range(len(blocks))]


class TestSharedPtilde:
    """The visible update's ptilde estimate, shared by a chain's candidates."""

    def test_linear_domain_estimate_is_unbiased(self):
        # Six distinct candidates in every chain and one shared sample per
        # chain: each chain's estimate of sqrt(ptilde(x_j)) is unbiased, so
        # over many chains exp((lpt - exact) / 2) averages to 1.
        model = random_model([8, 5, 4], np.random.default_rng(200), weight_scale=3.0)
        rng = np.random.default_rng(201)
        cand = np.unique((rng.random((40, 8)) < 0.5).astype(np.float64), axis=0)[:6]
        exact = np.array([exact_log_ptilde(model, x) for x in cand])
        n = 200_000
        _, lpt = _visible_log_terms(model, np.broadcast_to(cand, (n, 6, 8)), np.zeros((n, 5)), 1, rng)
        ratio = np.exp((lpt - exact) / 2.0)
        se = ratio.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(ratio.mean(axis=0) - 1.0) <= 4.0 * se)

    def test_q_term_matches_the_clamped_score(self):
        model = random_model([8, 5, 4], np.random.default_rng(202), weight_scale=3.0)
        rng = np.random.default_rng(203)
        cand = (rng.random((7, 3, 8)) < 0.5).astype(np.float64)
        h1 = (rng.random((7, 5)) < 0.5).astype(np.float64)
        lq, _ = _visible_log_terms(model, cand, h1, 2, rng)
        expected = bernoulli_step(model.q_layers[0].mean(cand), h1[:, None, :])[1]
        np.testing.assert_allclose(lq, expected, rtol=1e-12, atol=1e-9)

    def test_shapes_and_finite_under_an_inpainting_mask(self):
        model = random_model([8, 5, 4], np.random.default_rng(204), weight_scale=3.0)
        rng = np.random.default_rng(205)
        observed = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        mask = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        free = (rng.random((9, 4, 8)) < 0.5).astype(np.float64)
        cand = np.where(mask.astype(bool), observed, free)
        lq, lpt = _visible_log_terms(model, cand, np.ones((9, 5)), 13, rng)
        assert lq.shape == lpt.shape == (9, 4)
        assert np.all(np.isfinite(lq)) and np.all(np.isfinite(lpt))
        assert np.all(lq <= 0.0)


def reference_visible_log_terms(model, cand, h1, s, rng):
    """``_visible_log_terms`` with the layers above ``h_1`` walked by hand.

    Each tile draws ``h_{2:}`` layer by layer from the q stack and scores
    them under the prior and the upper p stack, with no pass of the model,
    and sums the per-sample terms as ``(log1m + log p) - log q - 2 log r``.
    """
    c, p, _ = cand.shape
    L = model.num_latent_layers
    lq = model.q_layers[0].activation(cand)
    np.clip(lq, -_LOGIT_CLIP, _LOGIT_CLIP, out=lq)
    mu_q = sigmoid(lq)
    lq_norm = _log1m_sum(lq.copy())
    sample_floats = sum(model.layer_sizes) + p
    tiles = estimators._spans(s, sample_floats, estimators._IN_FLIGHT)

    def span(start, stop):
        x, mu_x = cand[start:stop], mu_q[start:stop]
        lq_x, lq_norm_x = lq[start:stop], lq_norm[start:stop, :, None]
        rows = np.arange(stop - start)[:, None]

        def tile(m):
            pick = rng.integers(p, size=(stop - start, m))
            shape = (stop - start, m, mu_x.shape[-1])
            hs = [(rng.random(shape) < mu_x[rows, pick]).astype(np.float64)]
            lq_up = 0.0
            for layer in model.q_layers[1:]:
                h, lq_h, _ = bernoulli_step(layer.mean(hs[-1]), rng=rng)
                hs.append(h)
                lq_up = lq_up + lq_h
            lp_up = bernoulli_step(sigmoid(model.prior.biases), hs[-1])[1]
            for i in range(1, L):
                lp_up += bernoulli_step(model.p_layers[i].mean(hs[i]), hs[i - 1])[1]
            lq_cross = np.matmul(lq_x, hs[0].swapaxes(1, 2))
            lq_cross += lq_norm_x
            top = lq_cross.max(axis=1)
            log_r = top + np.log(np.exp(lq_cross - top[:, None, :]).mean(axis=1))
            lp_x = model.p_layers[0].activation(hs[0])
            np.clip(lp_x, -_LOGIT_CLIP, _LOGIT_CLIP, out=lp_x)
            terms = np.matmul(x, lp_x.swapaxes(1, 2))
            terms += lq_cross
            per_sample = _log1m_sum(lp_x) + lp_up - lq_up - 2.0 * log_r
            terms += per_sample[:, None, :]
            terms *= 0.5
            return terms

        terms = np.empty((stop - start, p, s))
        for a, b in tiles:
            terms[..., a:b] = tile(b - a)
        return estimators._logsumexp(terms) - np.log(s)

    spans = estimators._spans(c, tiles[0][1] * sample_floats, estimators._IN_FLIGHT)
    lpt = np.concatenate([span(start, stop) for start, stop in spans])
    return np.matmul(lq, h1[:, :, None])[..., 0] + lq_norm, 2.0 * lpt


class TestVisibleReference:
    """The visible update's bits and draws match :func:`reference_visible_log_terms`."""

    chains, proposals, shared = 5, 25, 100

    @pytest.mark.parametrize("budget", [None, 2**11], ids=["default budget", "spans and tiles"])
    @pytest.mark.parametrize("sizes", [[8, 5, 4], [20, 10, 6, 3], [4, 3]])
    def test_matches_the_reference(self, monkeypatch, sizes, budget):
        if budget is not None:
            monkeypatch.setattr(estimators, "_BLOCK_FLOATS", budget)
            # Every chain a span of its own, and its samples in several tiles.
            sample_floats = sum(sizes) + self.proposals
            tiles = estimators._spans(self.shared, sample_floats, estimators._IN_FLIGHT)
            spans = estimators._spans(self.chains, tiles[0][1] * sample_floats, estimators._IN_FLIGHT)
            assert len(tiles) > 1 and len(spans) == self.chains
        model = random_model(sizes, np.random.default_rng(206), weight_scale=3.0)
        rng = np.random.default_rng(207)
        cand = (rng.random((self.chains, self.proposals, sizes[0])) < 0.5).astype(np.float64)
        h1 = (rng.random((self.chains, sizes[1])) < 0.5).astype(np.float64)
        got_rng, want_rng = np.random.default_rng(208), np.random.default_rng(208)
        got = _visible_log_terms(model, cand, h1, self.shared, got_rng)
        want = reference_visible_log_terms(model, cand, h1, self.shared, want_rng)
        for a, b in zip(got, want):
            assert a.shape == (self.chains, self.proposals)
            assert np.array_equal(a, b)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestInpainting:
    def test_fully_observed_mask_returns_input(self):
        model = random_model([4, 3], np.random.default_rng(130))
        x = np.array([1.0, 0.0, 1.0, 1.0])
        config = GibbsConfig(num_sweeps=3, proposals_per_step=5)
        out = inpaint_chains(model, x, np.ones(4), 1, config, np.random.default_rng(131))[0]
        assert_array_equal(out, x)

    def test_observed_bits_never_change(self):
        model = random_model([4, 3], np.random.default_rng(132))
        x = np.array([1.0, 1.0, 0.0, 0.0])
        mask = np.array([1.0, 0.0, 0.0, 1.0])
        config = GibbsConfig(num_sweeps=4, proposals_per_step=6)
        out = inpaint_chains(model, x, mask, 100, config, np.random.default_rng(133))
        assert out.shape == (100, 4)
        assert np.all(out[:, 0] == 1.0)
        assert np.all(out[:, 3] == 0.0)
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_inputs_not_mutated(self):
        model = random_model([4, 3], np.random.default_rng(134))
        x = np.array([1.0, 1.0, 0.0, 0.0])
        mask = np.array([0.0, 1.0, 1.0, 0.0])
        config = GibbsConfig(num_sweeps=2, proposals_per_step=3)
        inpaint_chains(model, x, mask, 20, config, np.random.default_rng(135))
        assert_array_equal(x, [1.0, 1.0, 0.0, 0.0])
        assert_array_equal(mask, [0.0, 1.0, 1.0, 0.0])

    def test_all_free_mask_allowed(self):
        model = random_model([3, 2], np.random.default_rng(136))
        config = GibbsConfig(num_sweeps=2, proposals_per_step=4)
        rng = np.random.default_rng(137)
        out = inpaint_chains(model, np.zeros(3), np.zeros(3), 1, config, rng)[0]
        assert out.shape == (3,)

    def test_strong_model_completes_the_pattern(self):
        # A hand-built model that maps h = (1,1) to the all-ones image and
        # back; observing two on-pixels should complete the other two.
        p1 = BeliefLayer(np.full((4, 2), 8.0), np.full(4, -8.0))
        q1 = BeliefLayer(np.full((2, 4), 6.0), np.full(2, -6.0))
        model = BihmModel((4, 2), FactorizedPrior(np.array([3.0, 3.0])), (p1,), (q1,))
        x = np.array([1.0, 1.0, 0.0, 0.0])
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        config = GibbsConfig(num_sweeps=5, proposals_per_step=20)
        out = inpaint_chains(model, x, mask, 200, config, np.random.default_rng(138))
        completed = np.all(out == 1.0, axis=1).mean()
        assert completed >= 0.95

    def test_completion_distribution_matches_exact_conditional(self):
        model = random_model([3, 2], np.random.default_rng(103))
        x_corrupt = np.array([1.0, 0.0, 0.0])
        mask = np.array([1.0, 0.0, 0.0])
        # conditional over (x2, x3, h); marginalize the latents
        cond = exact_conditional_pstar(model, [np.array([1, -1, -1]), None])
        cond_x = cond.reshape(4, 4).sum(axis=1)
        config = GibbsConfig(num_sweeps=5, proposals_per_step=60)
        out = inpaint_chains(model, x_corrupt, mask, 4000, config, np.random.default_rng(139))
        codes = (out[:, 1:] @ np.array([2.0, 1.0])).astype(np.int64)
        emp = np.bincount(codes, minlength=4) / 4000
        assert 0.5 * np.abs(emp - cond_x).sum() <= 0.05

    def test_validation(self):
        model = zero_model([3, 2])
        config = GibbsConfig(num_sweeps=1, proposals_per_step=2)

        def one(x, mask):
            return inpaint_chains(model, x, mask, 1, config, np.random.default_rng(0))[0]

        with pytest.raises(ShapeError):
            one(np.zeros(4), np.zeros(4))
        with pytest.raises(ShapeError):
            one(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            one(np.full(3, 0.5), np.zeros(3))
        with pytest.raises(ValueError):
            one(np.zeros(3), np.full(3, 2.0))


class TestExpectedVisible:
    def test_matches_sigmoid_of_activation(self):
        model = random_model([4, 3], np.random.default_rng(140))
        h1 = np.array([1.0, 0.0, 1.0])
        expected = sigmoid(model.p_layers[0].activation(h1))
        assert_array_equal(expected_visible(model, h1), expected)

    def test_batch_shape(self):
        model = zero_model([4, 3])
        out = expected_visible(model, np.zeros((5, 3)))
        assert out.shape == (5, 4)
        assert_array_equal(out, np.full((5, 4), 0.5))

    def test_wrong_width_rejected(self):
        model = zero_model([3, 2, 2])
        with pytest.raises(ShapeError):
            expected_visible(model, np.zeros(3))
        with pytest.raises(ShapeError):
            expected_visible(model, np.zeros((5, 1)))
