"""Exhaustive-enumeration ground truth for tiny models.

For models whose bit counts permit it, these routines compute exactly the
quantities the estimators approximate: the unnormalized marginal
``ptilde(x) = (sum_h sqrt(p(x,h) q(h|x)))^2``, the directed marginal
``p(x)``, the squared normalizer ``Z^2 = sum_x ptilde(x)``, the
Bhattacharyya distance ``-log Z`` between the two joints, exact
posterior-weighted gradients, and exact conditionals of the combined model
over any subset of bits.  They are the verification backbone for every
estimator and for the Gibbs sampler.

Enumeration is strictly ordered: bit vectors are generated lexicographically
(first bit most significant), latent layers are concatenated bottom-up, and
the visible layer precedes the latents wherever both are enumerated.  No call
enumerates more than ``2^MAX_ENUM_BITS`` configurations: past that cap it
raises :class:`EnumerationLimitError` before allocating anything.  Every sum
over the latents runs through one blocked core, and the conditionals score
their free-bit configurations span by span, so the pass arrays of one block
stay under the package's one float budget, ``bihm.estimators._BLOCK_FLOATS``.
Memory is bounded by that budget plus the inputs and outputs (one entry per
visible row, or per free-bit configuration) whatever the bit counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from bihm.estimators import _logsumexp, _spans
from bihm.model import (
    BihmModel,
    ModelGradient,
    ShapeError,
    _checked_visible,
    p_pass,
    q_pass,
    weighted_gradient,
)

__all__ = [
    "EnumerationLimitError",
    "MAX_ENUM_BITS",
    "MAX_FREE_BITS",
    "bit_matrix",
    "config_index",
    "exact_log_ptilde",
    "exact_log_ptilde_by_x",
    "exact_log_p",
    "exact_log_z2",
    "exact_log_pstar",
    "exact_bhattacharyya",
    "exact_grad_log_ptilde",
    "exact_conditional_pstar",
]

MAX_ENUM_BITS = 24
MAX_FREE_BITS = 16


class EnumerationLimitError(ValueError):
    """The requested enumeration would exceed the bit cap."""


def _check_bits(what: str, bits: int) -> None:
    if bits > MAX_ENUM_BITS:
        raise EnumerationLimitError(
            f"{what} would enumerate 2^{bits} configurations, over the cap of 2^{MAX_ENUM_BITS}"
        )


def bit_matrix(n_bits: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """Rows ``start..stop`` of the lexicographic enumeration of n-bit vectors.

    Row ``i`` is the binary expansion of ``i`` with the first column most
    significant, so rows appear in lexicographic order of the bit vectors.
    """
    if stop is None:
        stop = 1 << n_bits
    ints = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(n_bits - 1, -1, -1, dtype=np.int64)
    return ((ints[:, None] >> shifts) & 1).astype(np.float64)


def config_index(bits) -> int:
    """Inverse of :func:`bit_matrix` row order: bit vector to row index."""
    b = np.asarray(bits)
    n = b.shape[0]
    return int(np.sum(b.astype(np.int64) << np.arange(n - 1, -1, -1)))


def _blocks(model: BihmModel, n_rows: int):
    """Yield ``(start, stop, layers)``: visible rows by latent configurations.

    The blocks cover ``n_rows`` visible rows times every latent configuration.
    ``layers`` holds one ``(1, configurations, d_l)`` array per latent layer,
    bottom-up.  Both axes are :func:`bihm.estimators._spans`, so a block's
    rows x configurations x (visible + latent bits) stays under the float
    budget (one row and one configuration at least).
    """
    n_bits = model.num_latent_bits
    width = sum(model.layer_sizes)
    offsets = np.cumsum((0,) + model.latent_sizes)
    for h_start, h_stop in _spans(1 << n_bits, width):
        joint = bit_matrix(n_bits, h_start, h_stop)
        layers = [joint[None, :, a:b] for a, b in zip(offsets[:-1], offsets[1:])]
        for start, stop in _spans(n_rows, (h_stop - h_start) * width):
            yield start, stop, layers


def _sum_over_h(model: BihmModel, xs, log_term) -> np.ndarray:
    """``log sum_h exp(log_term(x, h))`` over every latent configuration, per row.

    ``xs`` holds the visible rows, or is None for every visible configuration
    in enumeration order (generated block by block).  ``log_term(x, layers)``
    gets ``x`` of shape ``(rows, 1, visible_dim)`` and the block's latent
    layers, and returns the ``(rows, configurations)`` log terms.
    """
    _check_bits("summing over the latents", model.num_latent_bits)
    d0 = model.visible_dim
    out = np.full(1 << d0 if xs is None else xs.shape[0], -np.inf)
    for start, stop, layers in _blocks(model, out.shape[0]):
        x = bit_matrix(d0, start, stop) if xs is None else xs[start:stop]
        block = _logsumexp(log_term(x[:, None, :], layers))
        out[start:stop] = np.logaddexp(out[start:stop], block)
    return out


def _log_sqrt_pq(model: BihmModel, x, layers, keep_means=False):
    """``log sqrt(p(x,h) q(h|x))`` of the given layers, and the two passes behind it."""
    p = p_pass(model, x, layers, keep_means=keep_means)
    q = q_pass(model, x, layers, keep_means=keep_means)
    return 0.5 * (p.log_prob + q.log_prob), p, q


def _log_sqrt_ptilde(model: BihmModel, xs) -> np.ndarray:
    """``log sqrt(ptilde(x)) = log sum_h sqrt(p(x,h) q(h|x))``, per row of :func:`_sum_over_h`."""
    return _sum_over_h(model, xs, lambda x, layers: _log_sqrt_pq(model, x, layers)[0])


def _log_p(model: BihmModel, xs) -> np.ndarray:
    """``log p(x) = log sum_h p(x, h)``, per row of :func:`_sum_over_h`."""
    return _sum_over_h(model, xs, lambda x, layers: p_pass(model, x, layers).log_prob)


# ---------------------------------------------------------------------------
# Exact marginals and normalizer
# ---------------------------------------------------------------------------


def exact_log_ptilde(model: BihmModel, x) -> float:
    """``log ptilde(x)`` by summing ``sqrt(p(x,h) q(h|x))`` over every ``h``."""
    xs = _checked_visible(model, x, 1, "x", binary=True)
    return float(2.0 * _log_sqrt_ptilde(model, xs[None])[0])


def exact_log_p(model: BihmModel, x) -> float:
    """Exact directed marginal ``log p(x) = log sum_h p(x, h)``."""
    return float(_log_p(model, _checked_visible(model, x, 1, "x", binary=True)[None])[0])


def exact_log_ptilde_by_x(model: BihmModel) -> np.ndarray:
    """``log ptilde(x)`` for every visible configuration, in enumeration order."""
    _check_bits("exact_log_ptilde_by_x", model.visible_dim + model.num_latent_bits)
    return 2.0 * _log_sqrt_ptilde(model, None)


def exact_log_z2(model: BihmModel) -> float:
    """``log Z^2 = log sum_x ptilde(x)``; always <= 0, with 0 iff p = q."""
    return float(_logsumexp(exact_log_ptilde_by_x(model)))


def exact_bhattacharyya(model: BihmModel) -> float:
    """Bhattacharyya distance between the two joints: ``-log Z >= 0``."""
    return -0.5 * exact_log_z2(model)


def exact_log_pstar(model: BihmModel, x) -> float:
    """Exact ``log p*(x) = log ptilde(x) - log Z^2``."""
    return exact_log_ptilde(model, x) - exact_log_z2(model)


# ---------------------------------------------------------------------------
# Exact gradient
# ---------------------------------------------------------------------------


def exact_grad_log_ptilde(model: BihmModel, x) -> ModelGradient:
    """Exact gradient of ``log ptilde(x)`` with respect to all parameters.

    Equals the posterior-weighted sum ``sum_h gamma_h d/dtheta [log p(x,h) +
    log q(h|x)]`` with ``gamma_h`` proportional to ``sqrt(p(x,h) q(h|x))``:
    the normalizer comes from one pass over the latents, and the weighted
    gradients are added up block by block in a second.
    """
    xs = _checked_visible(model, x, 1, "x", binary=True)
    log_norm = _log_sqrt_ptilde(model, xs[None])[0]
    grad = ModelGradient.zeros_for(model)
    for _, _, layers in _blocks(model, 1):
        half, p, q = _log_sqrt_pq(model, xs, layers, keep_means=True)
        gamma = np.exp(half - log_norm)
        weighted_gradient(model, grad, gamma, xs, layers, p.means, q.means)
    return grad


# ---------------------------------------------------------------------------
# Exact conditionals of the combined model
# ---------------------------------------------------------------------------


def _clamp_spec(model: BihmModel, clamped) -> list:
    """Normalize a partial assignment to one int8 vector per layer.

    ``clamped`` lists one entry per layer, visibles first: an array with
    values 0/1 (clamped) or -1 (free), or None for an entirely free layer.
    """
    sizes = model.layer_sizes
    if clamped is None:
        return [np.full(s, -1, dtype=np.int8) for s in sizes]
    spec = list(clamped)
    if len(spec) != len(sizes):
        raise ShapeError(f"expected {len(sizes)} layer entries, got {len(spec)}")
    out = []
    for i, entry in enumerate(spec):
        if entry is None:
            out.append(np.full(sizes[i], -1, dtype=np.int8))
            continue
        a = np.asarray(entry)
        if a.shape != (sizes[i],):
            raise ShapeError(f"layer {i} clamp has shape {a.shape}, expected ({sizes[i]},)")
        if not np.all((a == -1) | (a == 0) | (a == 1)):
            raise ValueError("clamp entries must be 0, 1 or -1 (free)")
        out.append(a.astype(np.int8))
    return out


def exact_conditional_pstar(model: BihmModel, clamped) -> np.ndarray:
    """Exact conditional of the combined model over the free bits.

    The combined model's joint is proportional to
    ``sqrt(ptilde(x)) * sqrt(p(x,h) q(h|x))``; clamping any subset of bits
    and normalizing over the rest gives this conditional.  With the visibles
    fully clamped the ``ptilde`` factor is constant and the result reduces to
    the familiar layer conditionals.  Returns probabilities over the
    lexicographic enumeration of the free bits (layer order, visibles first;
    within a layer, index order).  At most ``MAX_FREE_BITS`` bits may be free.
    The configurations are scored in spans, so memory beyond vectors of the
    returned length follows the float budget.
    """
    spec = _clamp_spec(model, clamped)
    free = [(i, j) for i, layer in enumerate(spec) for j in np.nonzero(layer == -1)[0]]
    n_free = len(free)
    if n_free > MAX_FREE_BITS:
        raise EnumerationLimitError(
            f"{n_free} free bits exceeds the conditional cap of {MAX_FREE_BITS}"
        )
    clamps = [np.maximum(layer, 0).astype(np.float64) for layer in spec]
    log_w = np.empty(1 << n_free)
    for start, stop in _spans(log_w.shape[0], sum(model.layer_sizes)):
        bits = bit_matrix(n_free, start, stop)
        full = [np.tile(c, (stop - start, 1)) for c in clamps]
        for col, (i, j) in enumerate(free):
            full[i][:, j] = bits[:, col]
        log_w[start:stop] = _log_sqrt_pq(model, full[0], full[1:])[0]
    vis = [j for i, j in free if i == 0]
    if vis:
        # ptilde(x) varies only over the free visible bits, which lead the
        # enumeration: score each of their configurations once.
        lpt = np.empty(1 << len(vis))
        for start, stop in _spans(lpt.shape[0], model.visible_dim):
            xs = np.tile(clamps[0], (stop - start, 1))
            xs[:, vis] = bit_matrix(len(vis), start, stop)
            lpt[start:stop] = _log_sqrt_ptilde(model, xs)
        log_w += np.repeat(lpt, 1 << (n_free - len(vis)))
    return np.exp(log_w - _logsumexp(log_w))

