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

Rows (and outer samples) are independent, so they are scored in blocks by
the package's one block loop, ``_each_block``, which also runs the training
gradient's rows and the Gibbs chains; its docstring states how a loop is
cut, seeded and scheduled.  A row's samples are drawn in tiles by
``_tiled``, which also fills the Gibbs visible update's shared samples.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from bihm.model import BihmModel, _checked_visible, _row_sums, p_pass, q_pass

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
# of :func:`_each_block`, whose blocks run ``_IN_FLIGHT`` at a time, cut at
# that share of the budget, so it covers both blocks in flight.  The visible
# update's spans run one at a time on their chain block's thread and cut at
# the same share, so they stay within that block's share.  A block's real
# peak is about 5.5-6x its share, not 1x:
# the two passes keep their means, their score buffers and the drawn layers
# alive at once, and the gradient adds its deltas.
_BLOCK_FLOATS = 2**18

# Lanes of :func:`_each_block`, and so its blocks that run at once: one on
# the calling thread, one on a worker thread.  A loop of this many items or
# more runs at least this many blocks, whatever the CPUs, so its draws are
# the same anywhere.
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


def _each_block(n: int, item_floats: int, rng, run) -> None:
    """Call ``run(lane, start, stop, block_rng)`` for blocks that cover ``range(n)``.

    The one block loop of the package: it decides how a loop of ``n`` items
    of ``item_floats`` floats each is cut, seeded and scheduled.

    - Cut: the blocks are :func:`_spans` at ``1 / _IN_FLIGHT`` of the float
      budget, because that many run at once.  When all ``n`` items fit one
      block and number ``_IN_FLIGHT`` or more, they are cut into
      ``_IN_FLIGHT`` even blocks instead, so a few items still fill both
      lanes.
    - Seed: block ``i`` draws only from ``block_rng``, child ``i`` of
      ``rng.spawn(1)[0]``, built when the block starts, so no list of
      generators grows with the block count.
    - Lanes: block ``i`` belongs to lane ``i % _IN_FLIGHT``, and each lane
      runs its blocks in order.  Lane 1 runs on one worker thread when
      there are two CPUs, two blocks or more and two items fit the budget
      together; otherwise every block runs in order on the calling thread.
      No ``run`` starts a block loop of its own, so no more than two
      threads ever run.

    The cut, the streams and the lanes depend on ``n``, ``item_floats`` and
    the budget only, so the output depends on the seed and the budget, never
    on the threads or their timing.  A failure in either lane stops both
    from starting more blocks, and is raised here once the worker has ended.
    """
    blocks = _spans(n, item_floats, _IN_FLIGHT)
    if len(blocks) == 1 and n >= _IN_FLIGHT:
        blocks = [(n * j // _IN_FLIGHT, n * (j + 1) // _IN_FLIGHT) for j in range(_IN_FLIGHT)]
    seq = rng.bit_generator.seed_seq.spawn(1)[0]

    def block(i):
        block_rng = np.random.default_rng(np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,)))
        run(i % _IN_FLIGHT, *blocks[i], block_rng)

    threaded = _CPUS >= 2 and len(blocks) >= 2 and _IN_FLIGHT * item_floats <= _BLOCK_FLOATS
    if not threaded:
        for i in range(len(blocks)):
            block(i)
        return
    errors = []

    def lane(j):
        for i in range(j, len(blocks), _IN_FLIGHT):
            if errors:
                return
            try:
                block(i)
            except BaseException as exc:
                errors.append(exc)
                return

    worker = threading.Thread(target=lane, args=(1,), name="bihm-blocks", daemon=True)
    worker.start()
    try:
        lane(0)
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

    The sum is one GEMV (:func:`bihm.model._row_sums`).  Takes finite
    entries only: a row whose maximum is infinite gives nan.
    """
    m = a.max(axis=-1)
    return m + np.log(_row_sums(np.exp(a - m[..., None])))


def _log_mean_se(log_terms: np.ndarray):
    """Log of the mean of ``exp(log_terms)`` over the last axis, with SE and ESS.

    Each row is shifted by its own maximum.  The delta-method SE of the log
    is ``SE(m) / m``, computed as ``std(u) / (sqrt(K) mean(u))`` on the
    shifted terms ``u``, which is invariant to the shift; the effective
    sample size is ``(sum u)^2 / sum u^2``; the sums are GEMVs
    (:func:`bihm.model._row_sums`).  Returns three arrays of the
    leading shape.  The one temporary of the shape of ``log_terms`` holds
    ``u``, then its deviations from the mean, as ``numpy.std`` computes
    them.
    """
    k = log_terms.shape[-1]
    m = log_terms.max(axis=-1, keepdims=True)
    u = np.subtract(log_terms, m)
    np.exp(u, out=u)
    total = _row_sums(u)
    mean_u = total / k
    values = m[..., 0] + np.log(mean_u)
    ess_rows = total * total / np.einsum("...k,...k->...", u, u)
    if k < 2:
        ses = np.zeros_like(values)
    else:
        u -= mean_u[..., None]
        np.multiply(u, u, out=u)
        ses = np.sqrt(_row_sums(u) / (k - 1)) / (np.sqrt(k) * mean_u)
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


def _tiled(shape, tiles, tile) -> np.ndarray:
    """A new ``shape`` array whose slice ``[..., a:b]`` is ``tile(b - a)``, tile by tile.

    ``tiles`` holds the ``(a, b)`` ranges of the last axis, in order, as
    :func:`_spans` cuts it; each tile's arrays are freed before the next is
    drawn.
    """
    out = np.empty(shape)
    for a, b in tiles:
        out[..., a:b] = tile(b - a)
    return out


def _blocked_rows(n: int, k: int, sample_floats: int, row_block, rng):
    """Row-wise :func:`_log_mean_se` of ``n`` rows of ``k`` log terms, tile by tile.

    A row of ``k`` samples holds ``k * sample_floats`` floats (the
    estimators' samples hold their visible and latent bits), and its samples
    come in :func:`_spans`: one tile ``(0, k)`` when a row fits a lane's
    share of the budget, and otherwise tiles that each fit it.  The rows are
    the items of :func:`_each_block`, each holding one tile's floats, so a
    row of several tiles is a block of its own.  ``row_block(start, stop,
    rng)`` sets up the rows of one block and returns ``tile(m)``, which
    draws ``m`` more samples for each of those rows from ``rng`` and returns
    their ``(stop - start, m)`` log terms.  :func:`_tiled` fills one
    ``(rows, k)`` array with them, so :func:`_log_mean_se` sees whole rows.

    ``row_block`` must draw from the block stream it is given and no other
    generator, and start no block loop, so the result depends on the seed
    and the budget, never on the threads or their timing.  Returns one
    ``(3, n)`` array: the values, standard errors and ESS.
    """
    tiles = _spans(k, sample_floats, _IN_FLIGHT)
    out = np.empty((3, n))

    def run(lane, start, stop, rng):
        terms = _tiled((stop - start, k), tiles, row_block(start, stop, rng))
        out[:, start:stop] = _log_mean_se(terms)

    _each_block(n, tiles[0][1] * sample_floats, rng, run)
    return out


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
