"""Importance-weighted wake-sleep training of both model directions at once.

For each datapoint ``x``, K latent samples ``h ~ q(h | x)`` are drawn
ancestrally and weighted by ``w_k = sqrt(p(x, h_k) / q(h_k | x))``.  The
update direction is the self-normalized estimate

    sum_k wtilde_k d/dtheta [ log p(x, h_k) + log q(h_k | x) ]

which ascends ``log ptilde(x)``: differentiating twice the log of the sum of
square roots routes exactly half the posterior weight through each stack, and
the factor of two cancels the half.  No gradient crosses layer boundaries;
each layer sees only its own (input, target) pair.

Updates use bias-corrected Adam in ascent form, followed by an L1 subgradient
shrink on weight matrices only (biases are never regularized).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from bihm.estimators import ZEstimateConfig, _spans, est_log_z2, estimate_rows, log_weights
from bihm.model import (
    BihmModel,
    ModelGradient,
    ShapeError,
    _checked_visible,
    param_layout,
    weighted_gradient,
    zero_model,
)

__all__ = [
    "AdamState",
    "TrainConfig",
    "TrainingDiverged",
    "init_model",
    "minibatch_gradient",
    "adam_update",
    "train",
]


# Adam's decay rates and denominator offset: the published defaults of
# Kingma & Ba (2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Parameters left the finite range during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training phase.

    Defaults follow the reference recipe for binary benchmark data:
    minibatches of 100, L1 strength 1e-3 on the weights, Adam at 1e-3.
    ``learning_rate = 0`` is allowed (useful as a no-op check) even though a
    real run wants it positive.
    """

    k_train: int = 10
    learning_rate: float = 1e-3
    batch_size: int = 100
    l1_lambda: float = 1e-3
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k_train < 1 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("k_train, batch_size and epochs must be positive")
        if self.learning_rate < 0 or self.l1_lambda < 0:
            raise ValueError("learning_rate and l1_lambda must be nonnegative")


@dataclass
class AdamState:
    """Running first/second moments, flat vectors in the model's parameter order."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def zeros_for(cls, model: BihmModel) -> "AdamState":
        return cls(np.zeros_like(model.params), np.zeros_like(model.params), 0)


def init_model(layer_sizes: Sequence[int], seed: int) -> BihmModel:
    """Fresh model: Glorot-uniform weights, every bias (layers and prior) -1.

    Weights are drawn from ``Uniform(+-sqrt(6 / (fan_in + fan_out)))``; the
    -1 biases start every unit mildly off, which keeps early samples sparse.
    Deterministic given ``seed``.
    """
    model = zero_model(layer_sizes)
    rng = np.random.default_rng(seed)
    for name, a in model.param_items():
        if name.endswith(".weights"):
            fan_out, fan_in = a.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            a[...] = rng.uniform(-bound, bound, size=a.shape)
        else:
            a[...] = -1.0
    return model


def minibatch_gradient(
    model: BihmModel, batch, k: int, rng: np.random.Generator
) -> ModelGradient:
    """Average ascent gradient over a minibatch, K importance samples each.

    Per datapoint: draw ``h_1..h_K ~ q(. | x)``, softmax-normalize the
    log-weights ``(log p - log q) / 2``, and accumulate the weighted layer
    gradients of ``log p(x,h) + log q(h|x)``.  Batch axis is averaged.
    Rows are drawn and weighed in the estimators' row blocks, so memory
    follows their float budget (or one row of ``k`` samples, if larger),
    not the batch size.
    """
    if k < 1:
        raise ValueError("k must be positive")
    x = _checked_visible(model, batch, 2, "batch", binary=True)
    grad = ModelGradient.zeros_for(model)
    for start, stop in _spans(x.shape[0], k * sum(model.layer_sizes)):
        rows = x[start:stop]
        lw, p, q = log_weights(model, rows, k=k, rng=rng, keep_means=True)
        w = np.exp(lw - lw.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        w /= x.shape[0]
        weighted_gradient(model, grad, w, rows[:, None, :], q.layers, p.means, q.means)
    return grad


def adam_update(
    model: BihmModel, state: AdamState, gradient: ModelGradient, config: TrainConfig
):
    """One bias-corrected Adam ascent step, then L1 shrink on weights only.

    The step uses ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    The L1 term is a post-step subgradient move ``w -= lr * lambda * sign(w)``
    so the Adam moments track the likelihood gradient alone.  Returns
    ``(new_model, new_state)``; inputs are untouched.  Raises
    :class:`TrainingDiverged` if the step produces non-finite values.
    """
    if gradient.layer_sizes != model.layer_sizes:
        raise ShapeError(
            f"gradient for layer sizes {gradient.layer_sizes} does not match "
            f"the model's {model.layer_sizes}"
        )
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    lr, eps = config.learning_rate, ADAM_EPS
    shrink = lr * config.l1_lambda
    m, v, theta = (np.empty_like(model.params) for _ in range(3))
    # Filled one parameter array at a time, through one scratch array the
    # size of the largest: the three results are the only full-size arrays.
    layout = param_layout(model.layer_sizes)
    scratch = np.empty(max(math.prod(shape) for _, shape in layout))
    start = 0
    for name, shape in layout:
        n = math.prod(shape)
        at = slice(start, start + n)
        start += n
        g, m_t, v_t, theta_t = gradient.params[at], m[at], v[at], theta[at]
        tmp = scratch[:n]
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        np.multiply(state.first_moment[at], b1, out=m_t)
        m_t += np.multiply(g, 1.0 - b1, out=tmp)
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        np.multiply(state.second_moment[at], b2, out=v_t)
        v_t += tmp
        # theta = params + lr (m / corr1) / (sqrt(v / corr2) + eps)
        np.divide(v_t, corr2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m_t, corr1, out=theta_t)
        theta_t *= lr
        theta_t /= tmp
        theta_t += model.params[at]
        if not np.all(np.isfinite(theta_t)):
            raise TrainingDiverged("non-finite parameters after the Adam step")
        if config.l1_lambda > 0 and name.endswith(".weights"):
            theta_t -= np.multiply(np.sign(theta_t, out=tmp), shrink, out=tmp)
    return BihmModel._from_checked(model.layer_sizes, theta), AdamState(m, v, t)


def train(
    model: BihmModel,
    dataset,
    config: TrainConfig,
    valid=None,
    callbacks: Optional[Sequence[Callable]] = None,
    z_outer: int = 1000,
    start_epoch: int = 0,
    start_updates: int = 0,
):
    """Run epochs of shuffled-minibatch updates; returns (model, history).

    After each epoch the history gains one metrics dict with keys matching
    the metrics CSV schema: epoch, updates, train_logptilde, valid_logptilde
    (NaN when no validation set is given), two_log_z (estimated with
    ``z_outer`` outer samples), ess_pct (mean over the training set at
    K = k_train), seconds (wall time of the epoch including evaluation).
    Each callback is called as ``callback(metrics, model)`` after the row is
    appended.  ``start_epoch``/``start_updates`` offset the reported counters
    so a fine-tuning phase can continue the numbering of a first phase.

    Raises :class:`TrainingDiverged` if any parameter leaves the finite
    range; the message pinpoints the epoch and update.
    """
    x = _checked_visible(model, dataset, 2, "dataset", binary=True)
    if valid is not None:
        valid = _checked_visible(model, valid, 2, "validation set", binary=True)

    root = np.random.default_rng(config.seed)
    # One substream per purpose, split up front: reordering evaluation work
    # never perturbs the training sample stream.
    shuffle_rng, sample_rng, eval_rng = root.spawn(3)

    state = AdamState.zeros_for(model)
    history = []
    n = x.shape[0]
    updates = start_updates
    for epoch_i in range(config.epochs):
        epoch = start_epoch + epoch_i + 1
        started = time.perf_counter()
        perm = shuffle_rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            rows = x[perm[lo : lo + config.batch_size]]
            grad = minibatch_gradient(model, rows, config.k_train, sample_rng)
            try:
                model, state = adam_update(model, state, grad, config)
            except TrainingDiverged as exc:
                raise TrainingDiverged(
                    f"non-finite parameters at epoch {epoch}, update {updates + 1}"
                ) from exc
            updates += 1
        train_ll, _, train_ess = estimate_rows(model, x, config.k_train, eval_rng)
        if valid is not None:
            valid_ll = estimate_rows(model, valid, config.k_train, eval_rng)[0].mean()
        else:
            valid_ll = float("nan")
        two_log_z = est_log_z2(model, ZEstimateConfig(z_outer, 1), eval_rng).value
        metrics = {
            "epoch": epoch,
            "updates": updates,
            "train_logptilde": float(train_ll.mean()),
            "valid_logptilde": float(valid_ll),
            "two_log_z": float(two_log_z),
            "ess_pct": float(100.0 * train_ess.mean() / config.k_train),
            "seconds": time.perf_counter() - started,
        }
        history.append(metrics)
        for cb in callbacks or ():
            cb(metrics, model)
    return model, history
