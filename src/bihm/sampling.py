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
``ptilde(x)`` is itself estimated (``ptilde_k`` recognition samples per
candidate), which makes the visible update approximate beyond the resampling
approximation; exactness claims are therefore reserved for the hidden
updates.

A sweep updates all odd layers, then all even layers with the visibles
counted as layer 0.  During inpainting the visible update only overwrites
unobserved positions: candidates are composited with the observed bits before
weighing, which leaves the weight formula intact because the observed bits
contribute identical factors to every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from bihm.estimators import est_log_ptilde_rows
from bihm.model import (
    BihmModel,
    LatentConfig,
    ShapeError,
    _check_binary,
    _check_last_dim,
    _checked_latents,
    _checked_visible,
    bernoulli_step,
    p_pass,
    q_pass,
    sigmoid,
)

__all__ = [
    "GibbsConfig",
    "GibbsState",
    "gibbs_update_hidden",
    "gibbs_update_visible",
    "gibbs_sample",
    "gibbs_sample_chains",
    "inpaint",
    "inpaint_chains",
    "expected_visible",
]


@dataclass(frozen=True)
class GibbsConfig:
    """Chain parameters. The proposal counts trade cost against accuracy."""

    num_sweeps: int = 10
    proposals_per_step: int = 25
    ptilde_k: int = 25

    def __post_init__(self):
        if self.num_sweeps < 1 or self.proposals_per_step < 1 or self.ptilde_k < 1:
            raise ValueError("all Gibbs counts must be positive")


@dataclass(frozen=True)
class GibbsState:
    """One chain state: visible vector plus one binary vector per layer."""

    x: np.ndarray
    latents: LatentConfig

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ShapeError(f"state x must be a vector, got shape {x.shape}")
        _check_binary("state x", x)
        object.__setattr__(self, "x", x)


def _check_state(model: BihmModel, state: GibbsState) -> None:
    _checked_visible(model, state.x, 1, "state x")
    _checked_latents(model, state.latents)


def _categorical_rows(log_w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index per row, drawn proportionally to exp(log_w) (Gumbel trick)."""
    u = rng.random(log_w.shape)
    return np.argmax(log_w - np.log(-np.log(u)), axis=1)


def _update_chains(model, chains, l, config, rng, mask=None, observed=None) -> None:
    """Resample layer ``l`` (0 = the visibles) for every chain; mutates ``chains[l]``.

    A hidden layer proposes from the p/q mixture and scores the layer below;
    the visibles propose from p alone, and the ptilde estimate takes the place
    of the q factor.  ``mask`` and ``observed`` clamp visible positions.
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
    if l > 0:
        lq_self = bernoulli_step(mu_q[:, None, :], cand)[1]
    if l == L:
        lq_above = 0.0
    else:
        lq_above = bernoulli_step(model.q_layers[l].mean(cand), chains[l + 1][:, None, :])[1]
    if l == 0:
        # ptilde comes last: estimating it before the q factor raised the peak
        # RSS of `bihm oracle --dims 8,5,4` from 111 to 120 MB (x86-64, glibc).
        lpt, _ = est_log_ptilde_rows(model, cand.reshape(c * p, d), config.ptilde_k, rng)
        log_w = 0.5 * (lpt.reshape(c, p) + lq_above - lp_self)
    else:
        lp_below = bernoulli_step(model.p_layers[l - 1].mean(cand), chains[l - 1][:, None, :])[1]
        log_w = 0.5 * (lp_self + lp_below + lq_above + lq_self) - np.logaddexp(lp_self, lq_self)
    chains[l] = cand[np.arange(c), _categorical_rows(log_w, rng)]


def _sweep_chains(model, chains, config, rng, mask=None, observed=None) -> None:
    L = model.num_latent_layers
    for l in [*range(1, L + 1, 2), *range(0, L + 1, 2)]:
        _update_chains(model, chains, l, config, rng, mask, observed)


# ---------------------------------------------------------------------------
# Public single-state operations
# ---------------------------------------------------------------------------


def _state_to_chains(state: GibbsState) -> list:
    return [state.x[None, :].copy()] + [h[None, :].copy() for h in state.latents.layers]


def _chains_to_state(chains: list) -> GibbsState:
    return GibbsState(x=chains[0][0], latents=LatentConfig([h[0] for h in chains[1:]]))


def _update_state(model, state, l, config, rng) -> np.ndarray:
    """Check ``state``, resample its layer ``l`` (0 = the visibles) and return it."""
    _check_state(model, state)
    chains = _state_to_chains(state)
    _update_chains(model, chains, l, config, rng)
    return chains[l][0]


def gibbs_update_hidden(
    model: BihmModel, state: GibbsState, l: int, config: GibbsConfig, rng: np.random.Generator
) -> np.ndarray:
    """Propose-and-resample update of hidden layer ``l`` (1-based); returns new h_l."""
    if not 1 <= l <= model.num_latent_layers:
        raise ValueError(f"layer index {l} out of range 1..{model.num_latent_layers}")
    return _update_state(model, state, l, config, rng)


def gibbs_update_visible(
    model: BihmModel, state: GibbsState, config: GibbsConfig, rng: np.random.Generator
) -> np.ndarray:
    """Propose-and-resample update of the visibles; returns the new x."""
    return _update_state(model, state, 0, config, rng)


# Chains are processed in blocks so candidate arrays (rows x proposals x dim)
# stay within a fixed float budget regardless of the chain count.
_CHAIN_BLOCK_FLOATS = 2**21


def _run_chains(model, count, config, rng, init, mask=None, observed=None) -> list:
    """Sweep ``count`` chains block by block; returns ``[X, H1, ..., HL]``.

    ``init(rows)`` gives the starting ``[X, H1, ..., HL]`` of a block.
    """
    widest = max(model.layer_sizes)
    block = max(1, _CHAIN_BLOCK_FLOATS // (config.proposals_per_step * widest))
    outs = []
    for start in range(0, count, block):
        chains = init(min(block, count - start))
        for _ in range(config.num_sweeps):
            _sweep_chains(model, chains, config, rng, mask=mask, observed=observed)
        outs.append(chains)
    return [np.concatenate(arrays) for arrays in zip(*outs)]


def gibbs_sample(
    model: BihmModel,
    init: Optional[GibbsState],
    config: GibbsConfig,
    rng: np.random.Generator,
) -> GibbsState:
    """Run ``num_sweeps`` full sweeps from ``init`` (or a fresh model sample)."""
    if init is None:
        return _chains_to_state(gibbs_sample_chains(model, 1, config, rng))
    _check_state(model, init)
    return _chains_to_state(_run_chains(model, 1, config, rng, lambda rows: _state_to_chains(init)))


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


def inpaint(
    model: BihmModel,
    x_corrupt,
    mask,
    config: GibbsConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Complete the unobserved positions of one corrupted visible vector."""
    return inpaint_chains(model, x_corrupt, mask, 1, config, rng)[0]


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
