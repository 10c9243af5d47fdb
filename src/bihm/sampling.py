"""Approximate Gibbs sampling from the combined model, plus inpainting.

The combined model's joint is ``p*(x, h) propto sqrt(ptilde(x) p(x,h) q(h|x))``.
Its single-layer conditionals factor over neighboring layers only:

    p*(h_l | rest) propto sqrt( p(h_l|h_{l+1}) p(h_{l-1}|h_l)
                                q(h_{l+1}|h_l) q(h_l|h_{l-1}) )

with ``h_0 = x``, the prior standing in for ``p(h_L|h_{L+1})``, and the
``q(h_{L+1}|h_L)`` factor absent at the top.  Each update draws
``proposals_per_step`` candidates from the mixture
``(p(h_l|h_{l+1}) + q(h_l|h_{l-1})) / 2`` and keeps one with probability
proportional to the importance weight

    w = sqrt(p(h_l|.) p(.|h_l) q(.|h_l) q(h_l|.)) / (p(h_l|.) + q(h_l|.))

so the resampled value approaches the exact conditional as the proposal count
grows.  Additive shifts of the log-weights cancel in the resampling.

The visible conditional follows from the joint: the x-dependent factors are
``sqrt(ptilde(x)) * sqrt(p(x|h_1) q(h_1|x))``, so with proposals drawn from
``p(x|h_1)`` the weight is ``sqrt(ptilde(x) q(h_1|x) / p(x|h_1))``.
``ptilde(x)`` is itself estimated, from ``S = 4 * P`` latent samples that
all of a chain's P candidates share: they are drawn from the mixture
``r(h) = (1/P) sum_j q(h | x_j)`` of the candidates' recognition
distributions, and each candidate weighs them by
``sqrt(p(x_j, h) q(h | x_j)) / r(h)``.  The estimate makes the visible update
approximate beyond the resampling approximation; exactness claims are
therefore reserved for the hidden updates.

A sweep updates all odd layers, then all even layers with the visibles
counted as layer 0.  During inpainting the visible update only overwrites
unobserved positions: candidates are composited with the observed bits before
weighing, which leaves the weight formula intact because the observed bits
contribute identical factors to every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bihm.estimators import _IN_FLIGHT, _blocked_rows, _log_mean_se, _spans
from bihm.model import (
    SIGMOID_EPS,
    BihmModel,
    _check_last_dim,
    _checked_visible,
    bernoulli_step,
    p_pass,
    q_pass,
    sigmoid,
)

__all__ = [
    "GibbsConfig",
    "gibbs_sample_chains",
    "inpaint_chains",
    "expected_visible",
]


@dataclass(frozen=True)
class GibbsConfig:
    """Chain parameters. The proposal count trades cost against accuracy.

    It also sets the visible update's ptilde estimate: each chain draws
    ``4 * proposals_per_step`` latent samples that all its candidates share.
    """

    num_sweeps: int = 10
    proposals_per_step: int = 25

    def __post_init__(self):
        if self.num_sweeps < 1 or self.proposals_per_step < 1:
            raise ValueError("all Gibbs counts must be positive")


# Shared samples per chain in the visible update's ptilde estimate, per
# proposal.  Chosen by the TV of ``bihm oracle --dims 8,5,4 --checks gibbs``
# over seeds 0-9 (tolerance 0.05): up to 0.061 at 1x, 0.050 at 2x, and
# 0.030-0.043 at 4x, where the per-candidate estimate reached 0.034-0.042.
_SHARED_PER_PROPOSAL = 4

# The logit of 1 - SIGMOID_EPS: clipping an activation to +-this clamps its
# mean as bernoulli_step clamps it.
_LOGIT_CLIP = float(np.log1p(-SIGMOID_EPS) - np.log(SIGMOID_EPS))


def _categorical_rows(log_w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index per row, drawn proportionally to exp(log_w) (Gumbel trick)."""
    u = rng.random(log_w.shape)
    return np.argmax(log_w - np.log(-np.log(u)), axis=1)


def _log1m_sum(logits):
    """``sum log(1 - sigmoid(l))`` over the last axis of clipped logits; overwrites them.

    ``log(1 - sigmoid(l)) = -log1p(exp(l))``, and the clip keeps ``exp`` far
    from overflow.
    """
    np.exp(logits, out=logits)
    return -np.log1p(logits, out=logits).sum(axis=-1)


def _visible_log_terms(model, cand, h1, s, rng):
    """``log q(h_1 | x_j)`` and the estimate of ``log ptilde(x_j)`` for every candidate.

    ``cand`` holds each chain's P candidates ``x_j``, shape ``(c, P, d)``,
    and ``h1`` each chain's first latent layer, ``(c, d_1)``; both results
    are ``(c, P)``.  ptilde is estimated from ``s`` samples per chain that
    all its candidates share: each sample picks a candidate ``j`` uniformly
    and draws ``h ~ q(. | x_j)``, so ``h`` comes from the mixture
    ``r(h) = (1/P) sum_j q(h | x_j)``, and
    ``mean_s sqrt(p(x_j, h_s) q(h_s | x_j)) / r(h_s)`` is unbiased for
    ``sqrt(ptilde(x_j))`` (the balance heuristic of multiple importance
    sampling).  Only the first layer depends on ``j``, so ``p(h)`` and
    ``q(h_{2:} | h_1)`` are scored once per sample.  The two cross terms,
    ``log p(x_j | h_1)`` and ``log q(h_1 | x_j)`` for every candidate and
    sample, are one batched matmul each on clipped logits ``l``: a 0/1
    target ``t`` scores ``t . l + sum log(1 - sigmoid(l))``, which is
    :func:`bernoulli_step`'s clamped score up to rounding.  The chains are
    the rows of :func:`bihm.estimators._blocked_rows`, each sample holding
    its visible and latent floats and its P cross terms; each block of
    chains draws its samples from its own spawned stream of ``rng``.
    """
    c, p, _ = cand.shape
    L = model.num_latent_layers
    lq = model.q_layers[0].activation(cand)
    np.clip(lq, -_LOGIT_CLIP, _LOGIT_CLIP, out=lq)
    mu_q = sigmoid(lq)
    lq_norm = _log1m_sum(lq.copy())

    def row_block(start, stop, rng):
        x, mu_x = cand[start:stop], mu_q[start:stop]
        lq_x, lq_norm_x = lq[start:stop].swapaxes(1, 2), lq_norm[start:stop, None, :]
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
            # log q(h_1 | x_j), samples by candidates, and from it the log of
            # the first-layer mixture (1/P) sum_j q(h_1 | x_j).
            lq_cross = np.matmul(hs[0], lq_x)
            lq_cross += lq_norm_x
            log_r = _log_mean_se(lq_cross, errors=False)[0]
            lp_x = model.p_layers[0].activation(hs[0])
            np.clip(lp_x, -_LOGIT_CLIP, _LOGIT_CLIP, out=lp_x)
            terms = np.matmul(x, lp_x.swapaxes(1, 2))
            terms += lq_cross.swapaxes(1, 2)
            per_sample = _log1m_sum(lp_x) + lp_up - lq_up - 2.0 * log_r
            terms += per_sample[:, None, :]
            terms *= 0.5
            return terms

        return tile

    sample_floats = sum(model.layer_sizes) + p
    lpt = 2.0 * _blocked_rows(c, s, sample_floats, row_block, rng, (p,), errors=False)
    return np.matmul(lq, h1[:, :, None])[..., 0] + lq_norm, lpt


def _update_chains(model, chains, l, config, rng, mask=None, observed=None) -> None:
    """Resample layer ``l`` (0 = the visibles) for every chain; mutates ``chains[l]``.

    A hidden layer proposes from the p/q mixture and scores the layer below;
    the visibles propose from p alone, and the shared ptilde estimate of
    :func:`_visible_log_terms` takes the place of the q factor.  ``mask``
    and ``observed`` clamp visible positions.
    """
    L = model.num_latent_layers
    c = chains[0].shape[0]
    p = config.proposals_per_step
    d = model.layer_sizes[l]
    if l == 0 and mask is not None and mask.all():
        chains[0] = np.broadcast_to(observed, (c, d)).copy()
        return

    # The proposal means are also the means that score the candidates, so
    # only the factors conditioned on the candidates need activations.
    mu_p = sigmoid(model.prior.biases) if l == L else model.p_layers[l].mean(chains[l + 1])
    if l == 0:
        mu_mix = mu_p[:, None, :]
    else:
        mu_q = model.q_layers[l - 1].mean(chains[l - 1])
        coin = rng.random((c, p, 1)) < 0.5
        mu_mix = np.where(coin, mu_p[..., None, :], mu_q[:, None, :])
    cand = (rng.random((c, p, d)) < mu_mix).astype(np.float64)
    if l == 0 and mask is not None:
        cand = np.where(mask.astype(bool), observed, cand)

    lp_self = bernoulli_step(mu_p[..., None, :], cand)[1]
    if l == 0:
        lq_above, lpt = _visible_log_terms(model, cand, chains[1], _SHARED_PER_PROPOSAL * p, rng)
        log_w = 0.5 * (lpt + lq_above - lp_self)
    else:
        lq_self = bernoulli_step(mu_q[:, None, :], cand)[1]
        if l == L:
            lq_above = 0.0
        else:
            lq_above = bernoulli_step(model.q_layers[l].mean(cand), chains[l + 1][:, None, :])[1]
        lp_below = bernoulli_step(model.p_layers[l - 1].mean(cand), chains[l - 1][:, None, :])[1]
        log_w = 0.5 * (lp_self + lp_below + lq_above + lq_self) - np.logaddexp(lp_self, lq_self)
    chains[l] = cand[np.arange(c), _categorical_rows(log_w, rng)]


def _sweep_chains(model, chains, config, rng, mask=None, observed=None) -> None:
    L = model.num_latent_layers
    for l in [*range(1, L + 1, 2), *range(0, L + 1, 2)]:
        _update_chains(model, chains, l, config, rng, mask, observed)


def _run_chains(model, count, config, rng, init, mask=None, observed=None) -> list:
    """Sweep ``count`` chains block by block; returns ``[X, H1, ..., HL]``.

    ``init(rows)`` gives the starting ``[X, H1, ..., HL]`` of a block.  The
    blocks are :func:`bihm.estimators._spans` of chains, each holding
    ``proposals x widest layer`` candidate floats, cut at half the float
    budget because each holds the visible update's two blocks in flight
    while they run; so the candidate arrays stay under the budget whatever
    the chain count, and the visible update's shared ptilde samples are cut
    again within a block (see :func:`_visible_log_terms`).  Each block is
    written into the output arrays, allocated once, so the output is held
    once.  The draws depend on that split: one generator serves the blocks
    in turn.
    """
    outs = [np.empty((count, d)) for d in model.layer_sizes]
    item_floats = config.proposals_per_step * max(model.layer_sizes)
    for start, stop in _spans(count, item_floats, _IN_FLIGHT):
        chains = init(stop - start)
        for _ in range(config.num_sweeps):
            _sweep_chains(model, chains, config, rng, mask=mask, observed=observed)
        for out, block in zip(outs, chains):
            out[start:stop] = block
    return outs


def gibbs_sample_chains(
    model: BihmModel, count: int, config: GibbsConfig, rng: np.random.Generator
) -> list:
    """Run ``count`` independent chains at once; returns ``[X, H1, ..., HL]``.

    All chains are initialized from model samples and share the generator;
    per-row draws are independent.  This is the bulk path behind sample
    generation and the stationarity checks.
    """
    if count < 1:
        raise ValueError("count must be positive")

    def init(rows):
        drawn = p_pass(model, k=rows, rng=rng)
        return [drawn.x] + drawn.layers

    return _run_chains(model, count, config, rng, init)


# ---------------------------------------------------------------------------
# Inpainting
# ---------------------------------------------------------------------------


def inpaint_chains(
    model: BihmModel,
    x_corrupt,
    mask,
    count: int,
    config: GibbsConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """``count`` independent completions of ``x_corrupt``; returns ``(count, d)``.

    ``mask`` marks observed positions with 1; those bits are never altered.
    Latents start from ``q(h | x_corrupt)`` and the chain runs with the
    observed bits clamped.
    """
    x = _checked_visible(model, x_corrupt, 1, "x_corrupt", binary=True)
    m = _checked_visible(model, mask, 1, "mask", binary=True)
    if count < 1:
        raise ValueError("count must be positive")

    def init(rows):
        return [np.tile(x, (rows, 1))] + q_pass(model, x, k=rows, rng=rng).layers

    return _run_chains(model, count, config, rng, init, mask=m, observed=x)[0]


# ---------------------------------------------------------------------------
# Display helper
# ---------------------------------------------------------------------------


def expected_visible(model: BihmModel, h1) -> np.ndarray:
    """Mean of ``p(x | h_1)``: grayscale pixels instead of a hard sample.

    ``h1`` is one first-layer vector or any batch of them; a wrong width
    raises :class:`ShapeError`.
    """
    h = np.asarray(h1, dtype=np.float64)
    _check_last_dim("h1", h, model.layer_sizes[1])
    return model.p_layers[0].mean(h)
