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
the visible layer precedes the latents wherever both are enumerated.  A hard
cap on enumerated bits raises :class:`EnumerationLimitError` before any
exponential blowup can start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import logsumexp

from bihm.model import BihmModel, ModelGradient, ShapeError, p_pass, q_pass, weighted_gradient

__all__ = [
    "EnumLimit",
    "EnumerationLimitError",
    "OracleReport",
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
    "free_state_index",
    "oracle_report",
]

MAX_FREE_BITS = 16

# Cap on entries of any (visible block x latent block) working matrix.
_BLOCK_FLOATS = 2**22


class EnumerationLimitError(ValueError):
    """The requested enumeration would exceed the configured bit cap."""


@dataclass(frozen=True)
class EnumLimit:
    """Cap on the number of bits any oracle call may enumerate over."""

    max_total_bits: int = 24

    def __post_init__(self):
        if self.max_total_bits < 1:
            raise ValueError("max_total_bits must be positive")

    def check(self, what: str, bits: int) -> None:
        if bits > self.max_total_bits:
            raise EnumerationLimitError(
                f"{what} would enumerate 2^{bits} configurations, "
                f"over the cap of 2^{self.max_total_bits}"
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


def _split_latent(model: BihmModel, joint: np.ndarray) -> list:
    """Split joint latent bit rows into per-layer arrays, bottom-up."""
    sizes = model.latent_sizes
    offsets = np.cumsum((0,) + sizes)
    return [joint[:, offsets[i] : offsets[i + 1]] for i in range(len(sizes))]


def _latent_blocks(model: BihmModel, max_rows: int):
    """Yield per-layer arrays for blocks of the joint latent enumeration."""
    n = model.num_latent_bits
    total = 1 << n
    step = max(1, max_rows)
    for start in range(0, total, step):
        stop = min(start + step, total)
        yield _split_latent(model, bit_matrix(n, start, stop))


def _limit(limit: Optional[EnumLimit]) -> EnumLimit:
    return limit if limit is not None else EnumLimit()


def _log_sqrt_pq(model: BihmModel, x, layers, keep_means=False):
    """``log sqrt(p(x,h) q(h|x))`` of the given layers, and the two passes behind it."""
    p = p_pass(model, x, layers, keep_means=keep_means)
    q = q_pass(model, x, layers, keep_means=keep_means)
    return 0.5 * (p.log_prob + q.log_prob), p, q


# ---------------------------------------------------------------------------
# Exact marginals and normalizer
# ---------------------------------------------------------------------------


def exact_log_ptilde(model: BihmModel, x, limit: Optional[EnumLimit] = None) -> float:
    """``log ptilde(x)`` by summing ``sqrt(p(x,h) q(h|x))`` over every ``h``."""
    lim = _limit(limit)
    lim.check("exact_log_ptilde", model.num_latent_bits)
    xs = np.asarray(x, dtype=np.float64)
    parts = []
    for layers in _latent_blocks(model, _BLOCK_FLOATS):
        parts.append(logsumexp(_log_sqrt_pq(model, xs, layers)[0]))
    return float(2.0 * logsumexp(parts))


def exact_log_p(model: BihmModel, x, limit: Optional[EnumLimit] = None) -> float:
    """Exact directed marginal ``log p(x) = log sum_h p(x, h)``."""
    lim = _limit(limit)
    lim.check("exact_log_p", model.num_latent_bits)
    xs = np.asarray(x, dtype=np.float64)
    parts = [
        logsumexp(p_pass(model, xs, layers).log_prob)
        for layers in _latent_blocks(model, _BLOCK_FLOATS)
    ]
    return float(logsumexp(parts))


def exact_log_ptilde_by_x(model: BihmModel, limit: Optional[EnumLimit] = None) -> np.ndarray:
    """``log ptilde(x)`` for every visible configuration, in enumeration order."""
    lim = _limit(limit)
    d0 = model.visible_dim
    lim.check("exact_log_ptilde_by_x", d0 + model.num_latent_bits)
    n_vis = 1 << d0
    latent_rows = min(1 << model.num_latent_bits, _BLOCK_FLOATS)
    vis_rows = max(1, _BLOCK_FLOATS // latent_rows)
    running = np.full(n_vis, -np.inf)
    for v_start in range(0, n_vis, vis_rows):
        v_stop = min(v_start + vis_rows, n_vis)
        xs = bit_matrix(d0, v_start, v_stop)
        for layers in _latent_blocks(model, latent_rows):
            half = _log_sqrt_pq(model, xs[:, None, :], [h[None, :, :] for h in layers])[0]
            block_lse = logsumexp(half, axis=1)
            running[v_start:v_stop] = np.logaddexp(running[v_start:v_stop], block_lse)
    return 2.0 * running


def exact_log_z2(model: BihmModel, limit: Optional[EnumLimit] = None) -> float:
    """``log Z^2 = log sum_x ptilde(x)``; always <= 0, with 0 iff p = q."""
    return float(logsumexp(exact_log_ptilde_by_x(model, limit)))


def exact_bhattacharyya(model: BihmModel, limit: Optional[EnumLimit] = None) -> float:
    """Bhattacharyya distance between the two joints: ``-log Z >= 0``."""
    return -0.5 * exact_log_z2(model, limit)


def exact_log_pstar(model: BihmModel, x, limit: Optional[EnumLimit] = None) -> float:
    """Exact ``log p*(x) = log ptilde(x) - log Z^2``."""
    return exact_log_ptilde(model, x, limit) - exact_log_z2(model, limit)


# ---------------------------------------------------------------------------
# Exact gradient
# ---------------------------------------------------------------------------


def exact_grad_log_ptilde(
    model: BihmModel, x, limit: Optional[EnumLimit] = None
) -> ModelGradient:
    """Exact gradient of ``log ptilde(x)`` with respect to all parameters.

    Equals the posterior-weighted sum ``sum_h gamma_h d/dtheta [log p(x,h) +
    log q(h|x)]`` with ``gamma_h`` proportional to ``sqrt(p(x,h) q(h|x))``.
    """
    lim = _limit(limit)
    lim.check("exact_grad_log_ptilde", model.num_latent_bits)
    xs = np.asarray(x, dtype=np.float64)
    if xs.ndim != 1 or xs.shape[0] != model.visible_dim:
        raise ShapeError(f"x must be a length-{model.visible_dim} vector")

    layers = [h[None] for h in _split_latent(model, bit_matrix(model.num_latent_bits))]
    half, p, q = _log_sqrt_pq(model, xs, layers, keep_means=True)
    gamma = np.exp(half - logsumexp(half))
    return weighted_gradient(model, gamma, xs, layers, p.means, q.means)


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
        ai = a.astype(np.int8)
        if not np.all((ai == -1) | (ai == 0) | (ai == 1)) or not np.all(ai == a):
            raise ValueError("clamp entries must be 0, 1 or -1 (free)")
        out.append(ai)
    return out


def _free_positions(spec: list) -> list:
    return [(i, j) for i, layer in enumerate(spec) for j in np.nonzero(layer == -1)[0]]


def free_state_index(model: BihmModel, clamped, state) -> int:
    """Index of a full assignment within the free-bit enumeration order.

    ``state`` lists one binary array per layer, visibles first; it must agree
    with the clamped bits.  The index matches the ordering of the vector
    returned by :func:`exact_conditional_pstar`.
    """
    spec = _clamp_spec(model, clamped)
    arrays = [np.asarray(s) for s in state]
    bits = []
    for (i, j) in _free_positions(spec):
        bits.append(arrays[i][j])
    for i, layer in enumerate(spec):
        fixed = layer >= 0
        if not np.all(arrays[i][fixed] == layer[fixed]):
            raise ValueError(f"state disagrees with clamped bits in layer {i}")
    return config_index(np.asarray(bits)) if bits else 0


def exact_conditional_pstar(model: BihmModel, clamped) -> np.ndarray:
    """Exact conditional of the combined model over the free bits.

    The combined model's joint is proportional to
    ``sqrt(ptilde(x)) * sqrt(p(x,h) q(h|x))``; clamping any subset of bits
    and normalizing over the rest gives this conditional.  With the visibles
    fully clamped the ``ptilde`` factor is constant and the result reduces to
    the familiar layer conditionals.  Returns probabilities over the
    lexicographic enumeration of the free bits (layer order, visibles first;
    within a layer, index order).  At most ``MAX_FREE_BITS`` bits may be free.
    """
    spec = _clamp_spec(model, clamped)
    free = _free_positions(spec)
    n_free = len(free)
    if n_free > MAX_FREE_BITS:
        raise EnumerationLimitError(
            f"{n_free} free bits exceeds the conditional cap of {MAX_FREE_BITS}"
        )
    rows = 1 << n_free
    bits = bit_matrix(n_free)
    full = [
        np.broadcast_to(np.maximum(layer, 0).astype(np.float64), (rows, layer.shape[0])).copy()
        for layer in spec
    ]
    for col, (i, j) in enumerate(free):
        full[i][:, j] = bits[:, col]
    xs = full[0]
    hs = full[1:]
    log_w = _log_sqrt_pq(model, xs, hs)[0]

    free_vis_cols = [j for (i, j) in free if i == 0]
    if free_vis_cols:
        # ptilde(x) varies only over the free visible bits; evaluate each
        # distinct visible configuration once.
        vis_bits = xs[:, free_vis_cols].astype(np.int64)
        codes = vis_bits @ (1 << np.arange(len(free_vis_cols) - 1, -1, -1))
        table = np.empty(1 << len(free_vis_cols))
        seen = np.zeros(table.shape[0], dtype=bool)
        for row, code in enumerate(codes):
            if not seen[code]:
                table[code] = exact_log_ptilde(model, xs[row])
                seen[code] = True
        log_w = log_w + 0.5 * table[codes]

    return np.exp(log_w - logsumexp(log_w))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """Exact quantities for one model, keyed by visible configuration tuple."""

    log_ptilde_by_x: dict
    log_p_by_x: dict
    log_z2: float
    bhattacharyya: float
    exact_grad: Optional[ModelGradient] = None


def oracle_report(
    model: BihmModel,
    grad_x: Optional[Sequence[float]] = None,
    limit: Optional[EnumLimit] = None,
) -> OracleReport:
    """Compute every exact quantity for a tiny model in one pass.

    ``grad_x``, if given, selects one visible vector for the exact gradient.
    """
    lim = _limit(limit)
    ptilde = exact_log_ptilde_by_x(model, lim)
    d0 = model.visible_dim
    xs = bit_matrix(d0)
    keys = [tuple(int(b) for b in row) for row in xs]
    log_p = {k: exact_log_p(model, np.asarray(k, dtype=np.float64), lim) for k in keys}
    log_z2 = float(logsumexp(ptilde))
    grad = None
    if grad_x is not None:
        grad = exact_grad_log_ptilde(model, np.asarray(grad_x, dtype=np.float64), lim)
    return OracleReport(
        log_ptilde_by_x={k: float(v) for k, v in zip(keys, ptilde)},
        log_p_by_x=log_p,
        log_z2=log_z2,
        bhattacharyya=-0.5 * log_z2,
        exact_grad=grad,
    )
