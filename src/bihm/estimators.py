"""Importance-sampling estimators with Monte-Carlo standard errors.

The model assigns ``p*(x, h) = sqrt(p(x, h) q(x, h)) / Z``.  Marginalizing the
square root of the two joints over ``h`` gives the unnormalized quantity

    ptilde(x) = ( sum_h sqrt(p(x, h) q(h | x)) )^2 = Z^2 p*(x)

which both lower-bounds ``p*(x)`` (because ``Z <= 1``) and lower-bounds the
directed marginal ``p(x)`` (Cauchy-Schwarz).  Everything here estimates these
quantities from samples ``h ~ q(h | x)`` with weights

    log_w = (log p(x, h) - log q(h | x)) / 2

so that ``mean(w)^2`` estimates ``ptilde(x)`` and ``mean(w^2)`` estimates
``p(x)``.  All sums run through log-sum-exp; standard errors come from the
delta method on the linear-domain sample variance, computed on max-shifted
weights so the ratio ``std/mean`` never overflows.  Estimates of a log of a
mean are consistent but biased low for finite K (Jensen); the linear-domain
means themselves are unbiased.

``est_log_z2`` targets the normalizer: with ``(x, h) ~ p`` and
``h' ~ q(. | x)``, the statistic ``sqrt(p(x,h') q(h|x) / (p(x,h) q(h'|x)))``
has expectation exactly ``Z^2``.

Rows (and outer samples) are independent, so they are scored in blocks that
run two at a time: on the calling thread and, when the process may use two
CPUs and BLAS is pinned to one thread, on one worker thread.  Each block
draws from its own generator, spawned from the caller's before any block
runs, and the float budget covers both blocks in flight; a fixed seed and
budget give the same output on any machine.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from bihm.model import BihmModel, _checked_visible, p_pass, q_pass

__all__ = [
    "EstimateWithError",
    "WeightedSampleSet",
    "ZEstimateConfig",
    "draw_weighted_samples",
    "log_ptilde_from_weights",
    "log_p_from_weights",
    "est_log_ptilde",
    "est_log_p",
    "est_log_z2",
    "est_log_pstar",
    "est_log_ptilde_rows",
    "est_log_p_rows",
    "ess",
    "ess_pct",
]

# Float budget of what is in flight, the one budget of every bounded loop in
# the package: the estimators' row blocks and sample tiles (rows x samples x
# (visible + latent bits)), the row blocks of ``training.minibatch_gradient``,
# the oracle's enumeration blocks, the Gibbs chain blocks and, within them, the
# visible update's shared ptilde samples (chains x samples x (visible + latent
# bits + proposals)).  Each loop cuts its work with :func:`_spans`; the loops
# whose blocks run ``_IN_FLIGHT`` at a time (the estimators' row blocks and
# the Gibbs chain blocks that hold them) cut at that share of the budget, so
# it covers both blocks in flight.  A block's real peak is about 5.5-6x its
# share, not 1x: the two passes keep their means, their score buffers and the
# drawn layers alive at once, and the gradient adds its deltas.
_BLOCK_FLOATS = 2**18

# Blocks of :func:`_blocked_rows` that run at once: one on the calling
# thread, one on a worker thread.
_IN_FLIGHT = 2

# CPUs the blocks may use, read at import: those this process may run on
# when BLAS is pinned to one thread (``OPENBLAS_NUM_THREADS`` is 1, or it is
# unset and ``OMP_NUM_THREADS`` is 1), and otherwise one, because two threads
# that each start BLAS threads of their own oversubscribe the CPUs.  With
# one, every block runs on the calling thread.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
if os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")) != "1":
    _CPUS = 1


def _spans(n: int, item_floats: int, in_flight: int = 1) -> list:
    """The ``(start, stop)`` ranges that cover ``range(n)`` in order.

    Each holds at most ``max(1, _BLOCK_FLOATS // (in_flight * item_floats))``
    items, so ``in_flight`` spans of items of ``item_floats`` floats each
    stay under the budget together (one item each at least).
    """
    step = max(1, _BLOCK_FLOATS // (in_flight * item_floats))
    return [(a, min(a + step, n)) for a in range(0, n, step)]


def _each_block(count: int, run) -> None:
    """Call ``run(i)`` once for every ``i`` in ``range(count)``.

    The calling thread and, when there are two blocks or more and two CPUs,
    one worker thread take the next ``i`` from one lock-protected counter
    until none is left, so a thread that is slowed down simply takes fewer
    blocks.  A failure on either thread stops both from taking more, and is
    raised here once the worker has ended.
    """
    if count < 2 or _CPUS < 2:
        for i in range(count):
            run(i)
        return
    lock = threading.Lock()
    taken = 0
    errors = []

    def drain():
        nonlocal taken
        while True:
            with lock:
                if errors or taken == count:
                    return
                i = taken
                taken += 1
            try:
                run(i)
            except BaseException as exc:
                errors.append(exc)
                return

    worker = threading.Thread(target=drain, name="bihm-blocks", daemon=True)
    worker.start()
    try:
        drain()
    finally:
        worker.join()
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class EstimateWithError:
    """A scalar estimate, its standard error, and the sample count behind it."""

    value: float
    std_error: float
    num_samples: int

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be positive")
        if np.isnan(self.std_error) or self.std_error < 0:
            raise ValueError("std_error must be a nonnegative number")


@dataclass(frozen=True)
class ZEstimateConfig:
    """Sample counts for the normalizer estimate.

    ``k_inner = 1`` is the default because one recognition sample per
    generative sample converges fastest for a fixed total budget.
    """

    k_outer: int
    k_inner: int = 1

    def __post_init__(self):
        if self.k_outer < 1 or self.k_inner < 1:
            raise ValueError("k_outer and k_inner must be positive")


@dataclass(frozen=True)
class WeightedSampleSet:
    """K latent samples for one visible vector, with importance weights.

    ``layer_arrays`` holds the samples as one ``(K, d_l)`` array per latent
    layer, bottom-up, and ``log_w`` their unnormalized log-weights.
    """

    layer_arrays: tuple
    log_w: np.ndarray


def log_weights(model: BihmModel, x, k: int = 1, rng=None, keep_means=False):
    """Half log-ratios ``(log p(x,h) - log q(h|x)) / 2`` of ``k`` samples ``h ~ q(. | x)``.

    Draws ``k`` samples per visible vector (shapes as in
    :func:`bihm.model.q_pass`).  Returns ``(log_w, p, q)``: the weights and
    the two passes behind them.
    """
    q = q_pass(model, x, k=k, rng=rng, keep_means=keep_means)
    p = p_pass(model, x[..., None, :], q.layers, keep_means=keep_means)
    return 0.5 * (p.log_prob - q.log_prob), p, q


def draw_weighted_samples(model: BihmModel, x, k: int, rng: np.random.Generator) -> WeightedSampleSet:
    """Draw ``k`` samples from ``q(h | x)`` and weight them.

    All ``k`` samples are returned, so memory grows with ``k``; the
    ``est_log_*`` estimators draw in tiles instead.
    """
    if k < 1:
        raise ValueError("k must be positive")
    log_w, _, q = log_weights(model, _checked_visible(model, x, 1, "x", binary=True), k=k, rng=rng)
    return WeightedSampleSet(tuple(q.layers), log_w)


# ---------------------------------------------------------------------------
# Log-sum-exp, and log-mean-exp with delta-method standard errors
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray):
    """``log sum exp(a)`` over the last axis, shifted by each row's maximum.

    Takes finite entries only: a row whose maximum is infinite gives nan.
    """
    m = a.max(axis=-1)
    return m + np.log(np.exp(a - m[..., None]).sum(axis=-1))


def _log_mean_se(log_terms: np.ndarray, errors=True):
    """Log of the mean of ``exp(log_terms)`` over the last axis, with SE and ESS.

    Each row is shifted by its own maximum.  The delta-method SE of the log
    is ``SE(m) / m``, computed as ``std(u) / (sqrt(K) mean(u))`` on the
    shifted terms ``u``, which is invariant to the shift; the effective
    sample size is ``(sum u)^2 / sum u^2``.  Returns three arrays of the
    leading shape, or with ``errors`` False the log-means alone, as a
    one-tuple, without computing the SE and ESS.  The one temporary of the
    shape of ``log_terms`` holds ``u``, then its deviations from the mean,
    as ``numpy.std`` computes them.
    """
    k = log_terms.shape[-1]
    m = log_terms.max(axis=-1, keepdims=True)
    u = np.subtract(log_terms, m)
    np.exp(u, out=u)
    total = u.sum(axis=-1)
    mean_u = total / k
    values = m[..., 0] + np.log(mean_u)
    if not errors:
        return (values,)
    ess_rows = total * total / np.einsum("...k,...k->...", u, u)
    if k < 2:
        ses = np.zeros_like(values)
    else:
        u -= mean_u[..., None]
        np.multiply(u, u, out=u)
        ses = np.sqrt(u.sum(axis=-1) / (k - 1)) / (np.sqrt(k) * mean_u)
    return values, ses, ess_rows


def _checked_log_terms(log_terms, what: str) -> np.ndarray:
    lt = np.asarray(log_terms, dtype=np.float64)
    if lt.ndim != 1 or lt.size == 0:
        raise ValueError(f"{what} must be a nonempty vector")
    if np.any(np.isnan(lt)) or np.any(lt == np.inf):
        raise ValueError(f"{what} must be < inf and not NaN")
    return lt


def _vector_log_mean_se(log_terms):
    """:func:`_log_mean_se` of one validated vector, as floats.

    If every term is -inf the log-mean is -inf, with a warning.
    """
    lt = _checked_log_terms(log_terms, "log terms")
    if not np.isfinite(lt.max()):
        warnings.warn("all terms are zero; log-mean is -inf", RuntimeWarning)
        return -np.inf, 0.0
    value, se, _ = _log_mean_se(lt)
    return float(value), float(se)


def log_ptilde_from_weights(log_w: np.ndarray) -> EstimateWithError:
    """``2 (logsumexp(log_w) - log K)`` with its standard error.

    Twice the log of the mean weight; squaring doubles the delta-method SE.
    """
    value, se = _vector_log_mean_se(log_w)
    return EstimateWithError(2.0 * value, 2.0 * se, np.asarray(log_w).shape[0])


def log_p_from_weights(log_w: np.ndarray) -> EstimateWithError:
    """``logsumexp(2 log_w) - log K``: the directed-marginal estimate.

    On any shared weight vector this is >= the ptilde estimate, exactly
    (power-mean inequality on the same samples).
    """
    lw = np.asarray(log_w, dtype=np.float64)
    value, se = _vector_log_mean_se(2.0 * lw)
    return EstimateWithError(value, se, lw.shape[0])


def _estimate_one(model: BihmModel, x, k: int, rng, squared: bool) -> EstimateWithError:
    """Row 0 of :func:`estimate_rows` on ``x[None]``, for one visible vector ``x``."""
    xs = _checked_visible(model, x, 1, "x", binary=True)[None]
    values, ses, _ = estimate_rows(model, xs, k, rng, squared)
    return EstimateWithError(float(values[0]), float(ses[0]), k)


def est_log_ptilde(model: BihmModel, x, k: int, rng: np.random.Generator) -> EstimateWithError:
    """Estimate ``log ptilde(x)`` from ``k`` recognition samples.

    The one-row case of :func:`est_log_ptilde_rows`: the samples are drawn
    in tiles, so memory does not grow with ``k``.
    """
    return _estimate_one(model, x, k, rng, squared=False)


def est_log_p(model: BihmModel, x, k: int, rng: np.random.Generator) -> EstimateWithError:
    """Estimate the directed marginal ``log p(x)`` from ``k`` recognition samples.

    The one-row case of :func:`est_log_p_rows`.
    """
    return _estimate_one(model, x, k, rng, squared=True)


def est_log_z2(model: BihmModel, config: ZEstimateConfig, rng: np.random.Generator) -> EstimateWithError:
    """Estimate ``log Z^2`` (twice the log-normalizer).

    For each of ``k_outer`` draws ``(x, h) ~ p``, draws ``k_inner`` samples
    ``h' ~ q(. | x)`` and averages
    ``sqrt(p(x,h') q(h|x) / (p(x,h) q(h'|x)))``, whose expectation is exactly
    ``Z^2``.  Returns the log of the grand mean; the SE is the delta-method
    error of the linear-domain mean, computed over per-outer-sample means so
    inner correlation is accounted for.  The log of an unbiased estimate
    underestimates ``log Z^2`` on average.

    Each outer sample is a row of :func:`_blocked_rows`: the outer draws of
    a block of rows are made and scored once, and their inner samples are
    drawn tile by tile against them, so the sample arrays stay under
    ``_BLOCK_FLOATS`` floats whatever ``k_outer`` and ``k_inner``.  What
    grows with ``k_outer`` is the per-outer-sample log-means, a few floats
    each.
    """
    ko, ki = config.k_outer, config.k_inner

    def row_block(start, stop, rng):
        outer = p_pass(model, k=stop - start, rng=rng)
        lq_outer = q_pass(model, outer.x, outer.layers).log_prob

        def tile(m):
            _, p_inner, q_inner = log_weights(model, outer.x, k=m, rng=rng)
            # Grouped as differences of like terms: when p = q the ratio is
            # exactly 1 and the estimate is exactly zero.
            return 0.5 * (
                (p_inner.log_prob - outer.log_prob[:, None])
                + (lq_outer[:, None] - q_inner.log_prob)
            )

        return tile

    per_outer = _blocked_rows(ko, ki, sum(model.layer_sizes), row_block, rng)[0]
    value, se = _vector_log_mean_se(per_outer)
    return EstimateWithError(value, se, ko * ki)


def est_log_pstar(model: BihmModel, x, k: int, log_z2, rng: np.random.Generator) -> EstimateWithError:
    """Estimate ``log p*(x) = log ptilde(x) - log Z^2``.

    ``log_z2`` is a previously computed normalizer estimate, either a plain
    float (treated as exact) or an :class:`EstimateWithError`, in which case
    the two standard errors combine in quadrature.
    """
    if isinstance(log_z2, EstimateWithError):
        z_value, z_se = log_z2.value, log_z2.std_error
    else:
        z_value, z_se = float(log_z2), 0.0
    pt = est_log_ptilde(model, x, k, rng)
    se = float(np.hypot(pt.std_error, z_se))
    return EstimateWithError(pt.value - z_value, se, pt.num_samples)


# ---------------------------------------------------------------------------
# Row-batched estimates
# ---------------------------------------------------------------------------


def _blocked_rows(n: int, k: int, sample_floats: int, row_block, rng, cols=(), errors=True):
    """Row-wise :func:`_log_mean_se` of ``n`` rows of ``k`` log terms, tile by tile.

    A row of ``k`` samples holds ``k * sample_floats`` floats (the
    estimators' samples hold their visible and latent bits), and the rows
    come in :func:`_spans` of that, ``_IN_FLIGHT`` blocks to the budget; a
    row's samples come in spans too: one tile ``(0, k)`` when a row fits a
    block's share, and otherwise (each row then a block of its own) tiles
    that each fit it.  ``row_block(start, stop, rng)`` sets up the rows of
    one block and returns ``tile(m)``, which draws ``m`` more samples for
    each of those rows from ``rng`` and returns their
    ``(stop - start, *cols, m)`` log terms.  The tiles of a row fill its
    columns of one ``(rows, *cols, k)`` array, so :func:`_log_mean_se` sees
    whole rows.

    The blocks run through :func:`_each_block`, on up to two threads.  Block
    ``i`` draws only from child ``i`` of ``rng.spawn(blocks)``, and
    ``row_block`` must use no other generator, so the result depends on the
    seed and the budget, never on the threads or their timing.  Returns
    ``(values, std_errors, ess)``, each of shape ``(n, *cols)``, or with
    ``errors`` False the values alone.
    """
    tiles = _spans(k, sample_floats, _IN_FLIGHT)
    blocks = _spans(n, k * sample_floats, _IN_FLIGHT)
    streams = rng.spawn(len(blocks))
    out = np.empty((3 if errors else 1, n, *cols))

    def run(i):
        start, stop = blocks[i]
        tile = row_block(start, stop, streams[i])
        terms = np.empty((stop - start, *cols, k))
        for a, b in tiles:
            terms[..., a:b] = tile(b - a)
        out[:, start:stop] = _log_mean_se(terms, errors)

    _each_block(len(blocks), run)
    return out if errors else out[0]


def estimate_rows(model: BihmModel, xs, k: int, rng, squared=False):
    """Per-row ``log ptilde`` estimates (``log p`` if ``squared``), SEs and ESS.

    The row-batched core behind :func:`est_log_ptilde_rows`,
    :func:`est_log_p_rows`, the single-vector :func:`est_log_ptilde` and
    :func:`est_log_p`, and the training epoch evaluation.  ``ess`` is that
    of the weights ``exp(log_w)``, or of their squares if ``squared``.
    """
    x = _checked_visible(model, xs, 2, "dataset", binary=True)
    if k < 1:
        raise ValueError("k must be positive")

    def row_block(start, stop, rng):
        rows = x[start:stop]

        def tile(m):
            log_w = log_weights(model, rows, k=m, rng=rng)[0]
            return 2.0 * log_w if squared else log_w

        return tile

    values, ses, ess_rows = _blocked_rows(x.shape[0], k, sum(model.layer_sizes), row_block, rng)
    if not squared:
        values, ses = 2.0 * values, 2.0 * ses
    return values, ses, ess_rows


def est_log_ptilde_rows(model: BihmModel, xs, k: int, rng: np.random.Generator):
    """``est_log_ptilde`` for every row of a dataset, vectorized.

    Returns ``(values, std_errors)`` arrays of length ``rows``.  Rows are
    drawn in blocks, and a row whose ``k`` samples exceed ``_BLOCK_FLOATS``
    floats in sample tiles, so the sample arrays stay under that budget
    whatever ``k``; beyond them memory holds the ``(rows, k)`` log-weights
    of the two blocks in flight.
    """
    return estimate_rows(model, xs, k, rng)[:2]


def est_log_p_rows(model: BihmModel, xs, k: int, rng: np.random.Generator):
    """``est_log_p`` for every row of a dataset, vectorized."""
    return estimate_rows(model, xs, k, rng, squared=True)[:2]


# ---------------------------------------------------------------------------
# Effective sample size
# ---------------------------------------------------------------------------


def ess(log_w) -> float:
    """Effective sample size ``(sum w)^2 / sum w^2`` of log-domain weights.

    Computed on max-shifted weights, which makes the statistic invariant to
    adding a constant to all log-weights and returns exactly K for equal
    weights.  Always in ``[1, K]``.  If every weight is zero (all entries
    -inf) the answer is 1 with a warning: one hypothetical nonzero weight
    would dominate.
    """
    lw = _checked_log_terms(log_w, "log weights")
    k = lw.shape[0]
    if not np.isfinite(lw.max()):
        warnings.warn("all importance weights are zero; reporting ess = 1", RuntimeWarning)
        return 1.0
    return float(min(max(_log_mean_se(lw)[2], 1.0), k))


def ess_pct(log_w) -> float:
    """Effective sample size as a percentage of the number of weights."""
    lw = np.asarray(log_w, dtype=np.float64)
    return 100.0 * ess(lw) / lw.shape[0]
