"""Core model: stacked conditional-Bernoulli layers used in both directions.

A bidirectional Helmholtz machine (BiHM) pairs a top-down generative stack
``p`` (factorized Bernoulli prior over the deepest layer, then conditional
Bernoulli layers down to the visibles) with a bottom-up recognition stack
``q`` (conditional Bernoulli layers from the visibles upward).  The model
distribution is proportional to the geometric mean ``sqrt(p * q)`` of the two
joints; everything in this module is one of the two directed constituents.

All probability arithmetic is carried out in the log domain (nats).  Bernoulli
means are clamped to ``[SIGMOID_EPS, 1 - SIGMOID_EPS]`` before taking logs so
every log-probability is finite; sampling and gradients use the unclamped
sigmoid.  Parameters are float64 throughout.

Every directed computation chains one layer step, :func:`bernoulli_step`: it
takes the sigmoid mean of one activation, draws the layer when no target is
given and scores the target.  :func:`q_pass` runs it bottom-up and
:func:`p_pass` top-down, so each activation is computed once per pass.  The
passes skip input checks; the public functions check their arguments and
run one pass: :func:`log_joint_p` and :func:`log_q_given_x` score,
:func:`sample_q_rows` and :func:`sample_p_batch` draw.  One visible vector is
a one-row batch, ``x[None]``.  :func:`layer_log_prob` and
:func:`layer_sample` run the step for a single layer.

A layer's activation is one 2-D BLAS matrix product over all leading axes
of its input, and so is each weight gradient of :func:`weighted_gradient`,
over all rows and samples of the weighted deltas and the inputs, and a
score's last-axis sum is one matrix-vector product, :func:`_row_sums`;
:func:`sigmoid` is built from numpy's vectorized ``exp``, in place on the
fresh logits.

Array arguments may carry leading batch axes: log-probability functions reduce
over the last axis only, so ``layer_log_prob(layer, V, T)`` with ``V`` of shape
``(k, in_dim)`` returns ``k`` values.  Every stochastic operation takes an
explicit ``numpy.random.Generator``; independent substreams for concurrent
work should be derived with ``Generator.spawn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "BeliefLayer",
    "BihmModel",
    "FactorizedPrior",
    "ModelGradient",
    "ShapeError",
    "SIGMOID_EPS",
    "layer_log_prob",
    "layer_sample",
    "log_joint_p",
    "log_q_given_x",
    "random_model",
    "sample_p_batch",
    "sample_q_rows",
    "zero_model",
]

SIGMOID_EPS = 1e-7


class ShapeError(ValueError):
    """An argument's dimensions do not match the layer or model."""


def sigmoid(a, out=None):
    """Logistic function ``1 / (1 + exp(-a))``, unclamped; ``out=a`` takes it in place.

    Built from numpy ufuncs, so the ``exp`` is numpy's vectorized one.  For
    ``a < -709`` the ``exp`` overflows to inf and the result is exactly 0.0;
    that overflow is expected and raises no warning.
    """
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(a, out=out), out=out)
        e += 1.0
        return np.divide(1.0, e, out=out)


def clamped_sigmoid(a):
    """Logistic function clamped to ``[SIGMOID_EPS, 1 - SIGMOID_EPS]``."""
    return np.clip(sigmoid(a), SIGMOID_EPS, 1.0 - SIGMOID_EPS)


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _check_last_dim(what: str, arr: np.ndarray, dim: int) -> None:
    if arr.ndim < 1 or arr.shape[-1] != dim:
        raise ShapeError(f"{what}: expected last dimension {dim}, got shape {arr.shape}")


def _check_binary(what: str, arr: np.ndarray) -> None:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{what} entries must be 0 or 1")


@dataclass(frozen=True)
class BeliefLayer:
    """One conditional Bernoulli layer: ``P(t_i = 1 | v) = sigmoid(W v + b)_i``.

    Parameters are in logit units.  ``weights`` has shape
    ``(out_dim, in_dim)``; ``biases`` has length ``out_dim``.
    """

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weights)
        b = _as_float_array(self.biases)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ShapeError(
                f"layer weights {w.shape} and biases {b.shape} are inconsistent"
            )
        if w.shape[0] < 1 or w.shape[1] < 1:
            raise ShapeError("layer dimensions must be at least 1")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    def activation(self, inputs: np.ndarray) -> np.ndarray:
        """Pre-sigmoid logits ``W v + b`` for inputs with last dim ``in_dim``.

        All leading axes are flattened into the rows of one 2-D matrix
        product, one BLAS call, rather than one small product per leading
        slice.  The flattening is a view of a contiguous input and copies
        only a non-contiguous one.
        """
        out = inputs.reshape(-1, self.in_dim) @ self.weights.T
        out += self.biases
        return out.reshape(inputs.shape[:-1] + (self.out_dim,))

    def mean(self, inputs: np.ndarray) -> np.ndarray:
        """Unclamped Bernoulli means ``sigmoid(W v + b)``, taken in place on the fresh logits."""
        a = self.activation(inputs)
        return sigmoid(a, out=a)


@dataclass(frozen=True)
class FactorizedPrior:
    """Factorized Bernoulli distribution ``P(h_i = 1) = sigmoid(b_i)``."""

    biases: np.ndarray

    def __post_init__(self):
        b = _as_float_array(self.biases)
        if b.ndim != 1 or b.shape[0] < 1:
            raise ShapeError(f"prior biases must be a nonempty vector, got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("prior biases must be finite")
        object.__setattr__(self, "biases", b)

    @property
    def dim(self) -> int:
        return self.biases.shape[0]


def param_layout(layer_sizes) -> list:
    """``(name, shape)`` of every parameter array, in the one fixed order.

    Prior biases first, then the p stack from the top layer down, then the q
    stack from the bottom up.  A model, its gradients, the Adam moments and
    the checkpoint payload each store their parameters as one contiguous
    float64 vector in this order.
    """
    s = [int(n) for n in layer_sizes]
    L = len(s) - 1
    items = [("prior.biases", (s[L],))]
    for i in range(L - 1, -1, -1):
        items += [(f"p{i + 1}.weights", (s[i], s[i + 1])), (f"p{i + 1}.biases", (s[i],))]
    for i in range(L):
        items += [(f"q{i + 1}.weights", (s[i + 1], s[i])), (f"q{i + 1}.biases", (s[i + 1],))]
    return items


def param_count(layer_sizes) -> int:
    """Length of the flat parameter vector for ``layer_sizes``."""
    return sum(math.prod(shape) for _, shape in param_layout(layer_sizes))


def param_views(params: np.ndarray, layer_sizes) -> dict:
    """Name -> reshaped view into the flat vector ``params``, in layout order."""
    views = {}
    pos = 0
    for name, shape in param_layout(layer_sizes):
        n = math.prod(shape)
        views[name] = params[pos : pos + n].reshape(shape)
        pos += n
    return views


def _flat_params(sizes: tuple, arrays) -> np.ndarray:
    """``arrays``, one per :func:`param_layout` entry, as one new flat vector."""
    layout = param_layout(sizes)
    if len(arrays) != len(layout):
        raise ShapeError(f"expected {len(layout)} parameter arrays, got {len(arrays)}")
    for (name, shape), a in zip(layout, arrays):
        if np.shape(a) != shape:
            raise ShapeError(f"{name} has shape {np.shape(a)}, expected {shape}")
    return np.concatenate([np.ravel(a) for a in arrays])


def _check_sizes(layer_sizes) -> tuple:
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ShapeError("need at least one visible and one latent layer")
    if any(s < 1 for s in sizes):
        raise ShapeError(f"layer sizes must be positive, got {sizes}")
    return sizes


def _bind(cls, **arrays):
    """``cls`` instance holding ``arrays`` as they are, skipping validation.

    For views into a parameter vector that was validated as a whole.
    """
    obj = object.__new__(cls)
    for name, value in arrays.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class BihmModel:
    """Full parameter set: prior over the top layer plus both layer stacks.

    ``layer_sizes`` is ``[visible, h_1, ..., h_L]``.  ``p_layers[i]`` maps
    ``h_{i+1}`` down to ``h_i`` (with ``h_0`` meaning the visibles), and
    ``q_layers[i]`` maps ``h_i`` up to ``h_{i+1}``.

    All parameters live in ``params``, one contiguous float64 vector in
    :func:`param_layout` order; ``prior`` and the layers are views into it.
    The constructor copies the given layers' arrays into a fresh vector;
    :meth:`from_params` wraps an existing vector.

    A model is immutable: inference operations never mutate it and are safe
    to run concurrently.  Training produces updated copies.
    """

    layer_sizes: tuple
    prior: FactorizedPrior
    p_layers: tuple
    q_layers: tuple
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = _check_sizes(self.layer_sizes)
        p = tuple(self.p_layers)
        q = tuple(self.q_layers)
        L = len(sizes) - 1
        if len(p) != L or len(q) != L:
            raise ShapeError(f"expected {L} layers in each stack, got {len(p)} p / {len(q)} q")
        arrays = [self.prior.biases]
        for layer in p[::-1] + q:
            arrays += [layer.weights, layer.biases]
        self._adopt(sizes, _flat_params(sizes, arrays))

    def _adopt(self, sizes: tuple, params: np.ndarray) -> None:
        """Point ``params``, ``prior`` and both stacks at views of ``params``."""
        views = param_views(params, sizes)
        L = len(sizes) - 1

        def layer(name):
            w, b = views[name + ".weights"], views[name + ".biases"]
            return _bind(BeliefLayer, weights=w, biases=b)

        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "prior", _bind(FactorizedPrior, biases=views["prior.biases"]))
        object.__setattr__(self, "p_layers", tuple(layer(f"p{i}") for i in range(1, L + 1)))
        object.__setattr__(self, "q_layers", tuple(layer(f"q{i}") for i in range(1, L + 1)))

    @classmethod
    def from_params(cls, layer_sizes, params) -> "BihmModel":
        """Model over the flat vector ``params``, in :func:`param_layout` order.

        A float64 vector is used as it is, not copied.
        """
        sizes = _check_sizes(layer_sizes)
        flat = _as_float_array(params)
        n = param_count(sizes)
        if flat.shape != (n,):
            raise ShapeError(f"expected a vector of {n} parameters, got shape {flat.shape}")
        if not np.all(np.isfinite(flat)):
            raise ValueError("model parameters must be finite")
        return cls._from_checked(sizes, flat)

    @classmethod
    def _from_checked(cls, sizes: tuple, params: np.ndarray) -> "BihmModel":
        """:meth:`from_params` for a vector already known to fit ``sizes`` and be finite."""
        model = object.__new__(cls)
        model._adopt(sizes, params)
        return model

    @property
    def num_latent_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def visible_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def latent_sizes(self) -> tuple:
        return self.layer_sizes[1:]

    @property
    def num_latent_bits(self) -> int:
        return sum(self.layer_sizes[1:])

    def param_items(self):
        """Ordered ``(name, array)`` views of ``params``, in :func:`param_layout` order."""
        return list(param_views(self.params, self.layer_sizes).items())

    def with_params(self, arrays: Sequence[np.ndarray]) -> "BihmModel":
        """New model with parameter arrays replaced, in ``param_items`` order."""
        return BihmModel.from_params(self.layer_sizes, _flat_params(self.layer_sizes, arrays))


@dataclass
class ModelGradient:
    """Gradient with respect to every parameter of a model.

    ``params`` is one flat vector in the :func:`param_layout` order of
    ``layer_sizes``, the same layout as the model's own ``params``.
    """

    layer_sizes: tuple
    params: np.ndarray

    @classmethod
    def zeros_for(cls, model: BihmModel) -> "ModelGradient":
        return cls(model.layer_sizes, np.zeros_like(model.params))

    def param_items(self):
        """Same names and order as :meth:`BihmModel.param_items`."""
        return list(param_views(self.params, self.layer_sizes).items())


# ---------------------------------------------------------------------------
# The layer step and the two directed passes
# ---------------------------------------------------------------------------


def _row_sums(a):
    """``a.sum(axis=-1)`` as one 2-D matrix-vector product.

    At the short last axes of the hot kernels numpy's reduce is 3-4 times
    slower than a GEMV over all leading axes at once.  The GEMV may
    add a row's terms in another order, which depends on its position in
    the batch, so its last bits may differ from those of ``sum`` and from
    those of the same row summed alone.  A non-contiguous ``a`` is copied.
    """
    d = a.shape[-1]
    return (a.reshape(-1, d) @ np.ones(d)).reshape(a.shape[:-1])


def bernoulli_step(mu, targets=None, rng=None, shape=None, keep_mean=False):
    """Draw ``targets`` from ``Bernoulli(mu)`` when none are given, then score them.

    Draws have shape ``shape`` (default ``mu.shape``; ``mu`` broadcasts to
    it).  Targets must be 0 or 1; the public entry points check this, and
    the step itself does not.  Each target is scored by the probability the
    clamped mean ``c = clip(mu, SIGMOID_EPS, 1 - SIGMOID_EPS)`` gives it,
    ``|(1 - t) - c|`` (``c`` if ``t = 1``, ``1 - c`` if ``t = 0``), with one
    log per unit, and the log-probability sums the last axis as one GEMV
    (:func:`_row_sums`), whose last bits depend on the row's position in
    the batch.  Returns ``(targets, log_prob, mean)``.  With ``keep_mean``
    the clamp works on a copy and ``mean`` is the unclamped ``mu`` that
    gradients need; otherwise ``mu`` is clamped in place and ``mean`` is
    None.
    """
    if targets is None:
        targets = (rng.random(mu.shape if shape is None else shape) < mu).astype(np.float64)
    clamped = np.clip(mu, SIGMOID_EPS, 1.0 - SIGMOID_EPS, out=None if keep_mean else mu)
    prob = np.subtract(1.0 - targets, clamped)
    np.abs(prob, out=prob)
    log_prob = _row_sums(np.log(prob, out=prob))
    return targets, log_prob, (mu if keep_mean else None)


class Pass(NamedTuple):
    """What one directed pass through the model drew, scored and computed.

    ``x`` holds the visibles and ``layers`` the latent layers bottom-up,
    drawn or as given; ``log_prob`` is the summed log-probability of the
    pass's targets.  ``means`` (None unless asked for) holds the unclamped
    sigmoid mean of every conditional: for a q pass ``means[i]`` is that of
    ``h_{i+1}``; for a p pass ``means[i]`` is that of ``h_i`` (``h_0 = x``)
    and ``means[L]`` that of the prior.
    """

    x: np.ndarray
    layers: list
    log_prob: np.ndarray
    means: Optional[list]


def q_pass(model: BihmModel, x, layers=None, k: int = 1, rng=None, keep_means=False) -> Pass:
    """Bottom-up pass through ``q(h | x)``, one activation per layer.

    Scores ``layers`` when given (they broadcast against ``x``); a scoring
    pass draws nothing, even from a given ``rng``.  Otherwise draws ``k``
    samples per visible vector: a sample axis is inserted before the last
    axis of ``x``, so layer ``l`` has shape ``x.shape[:-1] + (k, d_l)``, and
    the first activation is computed once per vector rather than once per
    sample.  Generator draws go layer by layer in row-major order.
    """
    below = x[..., None, :] if layers is None else x
    targets = [None] * len(model.q_layers) if layers is None else layers
    drawn, means, log_q = [], [], 0.0
    for i, layer in enumerate(model.q_layers):
        mu = layer.mean(below)
        shape = mu.shape[:-2] + (k, mu.shape[-1]) if i == 0 else None
        below, lq, mean = bernoulli_step(mu, targets[i], rng, shape, keep_means)
        log_q = log_q + lq
        drawn.append(below)
        means.append(mean)
    return Pass(x, drawn, log_q, means if keep_means else None)


def p_pass(model: BihmModel, x=None, layers=None, k: int = 1, rng=None, keep_means=False) -> Pass:
    """Top-down pass through ``p(x, h)``: the prior, then one activation per layer.

    Scores the given ``x`` and ``layers`` and draws what is not given:
    ``k`` samples from the prior when ``layers`` is None, and the visibles
    when ``x`` is None.  Arrays broadcast against each other as given.
    """
    L = model.num_latent_layers
    hs = [x] + ([None] * L if layers is None else list(layers))
    terms, means = [None] * (L + 1), [None] * (L + 1)
    mu = sigmoid(model.prior.biases)
    hs[L], terms[L], means[L] = bernoulli_step(mu, hs[L], rng, (k,) + mu.shape, keep_means)
    for i in range(L - 1, -1, -1):
        mu = model.p_layers[i].mean(hs[i + 1])
        hs[i], terms[i], means[i] = bernoulli_step(mu, hs[i], rng, None, keep_means)
    log_p = terms[L]
    for term in terms[:L]:
        log_p = log_p + term
    return Pass(hs[0], hs[1:], log_p, means if keep_means else None)


def weighted_gradient(
    model: BihmModel, grad: ModelGradient, weights, x, layers, p_means, q_means
) -> None:
    """Add the weighted sum of the gradients of ``log p(x, h) + log q(h | x)`` into ``grad``.

    ``weights`` has shape ``(b, k)``, ``x`` broadcasts to ``(b, k,
    visible_dim)`` and ``layers`` holds one array per latent layer, bottom-up,
    that broadcasts to ``(b, k, d_l)``.  ``p_means`` and ``q_means`` are the
    :class:`Pass` means of the two passes that scored them, so no activation
    is recomputed.  Each layer sees only its own (input, target) pair; its
    weighted gradient is added straight into the flat vector ``grad.params``.

    Each layer's weighted delta ``(targets - mean) * weights`` is formed
    once, and its weight gradient is one 2-D BLAS product of the deltas and
    the inputs over all rows and samples.  An input that does not vary along
    the sample axis (``x`` of shape ``(b, 1, visible_dim)`` or
    ``(visible_dim,)``) meets the deltas summed over that axis first.
    """
    out = param_views(grad.params, model.layer_sizes)
    L = model.num_latent_layers
    w = weights[..., None]
    k = w.shape[1]
    top = (layers[L - 1] - p_means[L]) * w
    out["prior.biases"] += top.reshape(-1, top.shape[-1]).sum(axis=0)
    for i in range(L):
        below = x if i == 0 else layers[i - 1]
        for name, inputs, targets, mean in (
            (f"p{i + 1}", layers[i], below, p_means[i]),
            (f"q{i + 1}", below, layers[i], q_means[i]),
        ):
            wd = (targets - mean) * w
            if np.shape(inputs)[-2:-1] != (k,):
                wd = wd.sum(axis=1, keepdims=True)
            inputs = np.broadcast_to(inputs, wd.shape[:-1] + inputs.shape[-1:])
            wd = wd.reshape(-1, wd.shape[-1])
            out[name + ".weights"] += wd.T @ inputs.reshape(-1, inputs.shape[-1])
            out[name + ".biases"] += wd.sum(axis=0)


# ---------------------------------------------------------------------------
# Layer-level operations
# ---------------------------------------------------------------------------


def layer_log_prob(layer: BeliefLayer, inputs, targets) -> np.ndarray:
    """Log-probability of ``targets`` under the layer's conditional, in nats.

    Computes ``sum_i [t_i log mu_i + (1 - t_i) log(1 - mu_i)]`` with
    ``mu = sigmoid(W v + b)`` clamped away from 0 and 1, so the result is
    always finite and nonpositive.  Targets must be 0 or 1.  Leading batch
    axes broadcast.
    """
    v = _as_float_array(inputs)
    t = _as_float_array(targets)
    _check_last_dim("layer input", v, layer.in_dim)
    _check_last_dim("layer target", t, layer.out_dim)
    _check_binary("layer target", t)
    return bernoulli_step(layer.mean(v), t)[1]


def layer_sample(layer: BeliefLayer, inputs, rng: np.random.Generator) -> np.ndarray:
    """Draw each output bit independently from ``Bernoulli(sigmoid(W v + b))``."""
    v = _as_float_array(inputs)
    _check_last_dim("layer input", v, layer.in_dim)
    return bernoulli_step(layer.mean(v), rng=rng)[0]


# ---------------------------------------------------------------------------
# Joint log-probabilities and ancestral sampling
# ---------------------------------------------------------------------------


def _checked_visible(model: BihmModel, x, ndim: int, what: str, binary=False) -> np.ndarray:
    """``x`` as a float array: one visible vector if ``ndim`` is 1, a nonempty batch of rows if 2.

    Raises :class:`ShapeError` for a wrong axis count, width or an empty
    batch, and ``ValueError`` for entries other than 0 and 1 if ``binary``.
    """
    xs = _as_float_array(x)
    if xs.ndim != ndim or xs.shape[-1] != model.visible_dim or xs.size == 0:
        want = f"({model.visible_dim},)" if ndim == 1 else f"(rows >= 1, {model.visible_dim})"
        raise ShapeError(f"{what} has shape {xs.shape}, expected {want}")
    if binary:
        _check_binary(what, xs)
    return xs


def _checked_latents(model: BihmModel, h) -> list:
    """The layers of ``h``, bottom-up, as float arrays, their count, widths and entries checked.

    ``h`` is a sequence of one array per latent layer, leading batch axes
    free.  Every entry must be 0 or 1.
    """
    hs = [_as_float_array(a) for a in h]
    if len(hs) != model.num_latent_layers:
        raise ShapeError(f"expected {model.num_latent_layers} latent layers, got {len(hs)}")
    for i, a in enumerate(hs):
        _check_last_dim(f"latent layer {i + 1}", a, model.layer_sizes[i + 1])
        _check_binary(f"latent layer {i + 1}", a)
    return hs


def _checked_joint(model: BihmModel, x, h, score_x: bool):
    """``x`` and the latent layers of ``h`` as float arrays, their last dimensions checked.

    The scored targets must be 0 or 1: the latent layers always, ``x`` if ``score_x``.
    """
    xs = _as_float_array(x)
    _check_last_dim("visible input", xs, model.visible_dim)
    if score_x:
        _check_binary("visible input", xs)
    return xs, _checked_latents(model, h)


def log_joint_p(model: BihmModel, x, h) -> np.ndarray:
    """Log of the top-down joint: prior times the p-stack conditionals.

    ``log p(x, h) = log p(h_L) + sum_l log p(h_{l-1} | h_l)`` with
    ``h_0 = x``.  ``h`` is a sequence of one array per latent layer,
    bottom-up; leading batch axes broadcast across all of them.  ``x`` and
    ``h`` must be 0 or 1.
    """
    return p_pass(model, *_checked_joint(model, x, h, score_x=True)).log_prob


def log_q_given_x(model: BihmModel, x, h) -> np.ndarray:
    """Log of the bottom-up conditional ``q(h | x)``, layer by layer upward.

    ``h`` must be 0 or 1; ``x`` is only conditioned on.
    """
    return q_pass(model, *_checked_joint(model, x, h, score_x=False)).log_prob


def sample_q_rows(model: BihmModel, xs, k: int, rng: np.random.Generator) -> list:
    """Draw ``k`` configurations from ``q(h | x_n)`` for each row of ``xs``.

    ``xs`` has shape ``(n, visible_dim)``; returns one ``(n, k, d_l)`` array
    per latent layer.  Each call consumes generator draws layer by layer in
    row-major order, so results are reproducible for a fixed generator state
    and row count.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return q_pass(model, _checked_visible(model, xs, 2, "xs"), k=k, rng=rng).layers


def sample_p_batch(model: BihmModel, k: int, rng: np.random.Generator):
    """Draw ``k`` joint samples from the top-down model.

    Returns ``(x, layers)`` where ``x`` has shape ``(k, visible_dim)`` and
    ``layers`` lists one ``(k, d_l)`` array per latent layer, bottom-up.
    """
    if k < 1:
        raise ValueError("k must be positive")
    drawn = p_pass(model, k=k, rng=rng)
    return drawn.x, drawn.layers


# ---------------------------------------------------------------------------
# Model construction helpers
# ---------------------------------------------------------------------------


def random_model(
    layer_sizes: Sequence[int],
    rng: np.random.Generator,
    weight_scale: float = 1.0,
    bias_scale: float = 1.0,
) -> BihmModel:
    """Random model for tests and oracle checks.

    Weights are Gaussian with standard deviation ``weight_scale / sqrt(in_dim)``
    and biases Gaussian with standard deviation ``bias_scale``, so activations
    stay well inside the unsaturated sigmoid range.  The two stacks are drawn
    independently, which makes the p and q joints genuinely different.
    """
    sizes = _check_sizes(layer_sizes)
    L = len(sizes) - 1

    def _layer(out_dim, in_dim):
        w = rng.normal(0.0, weight_scale / np.sqrt(in_dim), size=(out_dim, in_dim))
        b = rng.normal(0.0, bias_scale, size=out_dim)
        return BeliefLayer(w, b)

    p = tuple(_layer(sizes[i], sizes[i + 1]) for i in range(L))
    q = tuple(_layer(sizes[i + 1], sizes[i]) for i in range(L))
    prior = FactorizedPrior(rng.normal(0.0, bias_scale, size=sizes[-1]))
    return BihmModel(sizes, prior, p, q)


def zero_model(layer_sizes: Sequence[int]) -> BihmModel:
    """Model with all parameters zero: every conditional is uniform."""
    sizes = _check_sizes(layer_sizes)
    return BihmModel.from_params(sizes, np.zeros(param_count(sizes)))
