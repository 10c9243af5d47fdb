"""Seeded synthetic inputs for the benchmark, written through ``bihm.io``.

Rows come from a mixture of random binary prototypes with independent bit
flips, so a model has real structure to learn and to score.  The same seed
always gives the same files, byte for byte.

The checkpoints that ``eval-uci`` and ``gibbs-mnist`` score are fitted in
closed form to the mixture the rows were drawn from, not trained: the first
``m`` units of every latent layer carry a one-hot prototype code (the prior
picks it, the p stack copies it down and draws the pixels, the q stack
recognizes it from the pixels and copies it up) and the remaining units are
weak noise bits on which p and q agree.  Building them costs no training
time, and because no code of ``bihm`` other than the container classes and
``save_checkpoint`` is involved, two versions of the library always score the
same model bytes for the same seed.
"""

from __future__ import annotations

import os

import numpy as np

import bihm.io
import bihm.model

PROTOTYPES = 16
DENSITY = 0.2  # share of 1 bits in a prototype
FLIP = 0.05  # chance that a row disagrees with its prototype in one bit
COPY_LOGIT = 5.0  # a latent unit copies its parent with probability sigmoid(5)
NOISE_LOGIT = -3.0  # unstructured latent units are on with probability sigmoid(-3)
RECOGNITION_LOGIT = 8.0  # q's logit for the true prototype at the expected agreement


def _rng(seed: int, width: int) -> np.random.Generator:
    return np.random.default_rng([seed, width])


def mixture(seed: int, width: int):
    """``(prototypes, draw)`` for one seed and width; ``draw(n)`` returns rows."""
    rng = _rng(seed, width)
    protos = rng.random((PROTOTYPES, width)) < DENSITY

    def draw(n: int) -> np.ndarray:
        idx = rng.integers(PROTOTYPES, size=n)
        flips = rng.random((n, width)) < FLIP
        return (protos[idx] ^ flips).astype(np.float64)

    return protos, draw


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _copy_layer(out_dim: int, in_dim: int) -> bihm.model.BeliefLayer:
    """Unit j < PROTOTYPES copies input j; the rest are noise bits."""
    w = np.zeros((out_dim, in_dim))
    b = np.full(out_dim, NOISE_LOGIT)
    code = np.arange(PROTOTYPES)
    w[code, code] = 2.0 * COPY_LOGIT
    b[:PROTOTYPES] = -COPY_LOGIT
    return bihm.model.BeliefLayer(w, b)


def fitted_model(protos: np.ndarray, latent_sizes) -> bihm.model.BihmModel:
    """A BiHM that encodes the prototype mixture in closed form."""
    m, d = protos.shape
    sizes = (d,) + tuple(latent_sizes)
    if min(latent_sizes) < m:
        raise ValueError(f"every latent layer needs at least {m} units, got {latent_sizes}")
    sign = 2.0 * protos - 1.0  # +1 where the prototype has a 1 bit

    # p(x | h1): with exactly one code unit on, each pixel matches that
    # prototype with probability 1 - FLIP; with none on, it follows the
    # pixel's mean over prototypes.
    base = _logit(np.clip(protos.mean(axis=0), FLIP, 1.0 - FLIP))
    w = np.zeros((d, sizes[1]))
    w[:, :m] = _logit(1.0 - FLIP) * sign.T - base[:, None]
    p_layers = [bihm.model.BeliefLayer(w, base)]
    p_layers += [_copy_layer(sizes[i], sizes[i + 1]) for i in range(1, len(sizes) - 1)]

    # q(h1 | x): the logit of code unit j is linear in the agreement
    # A_j(x) = sum_d sign_jd (2 x_d - 1), centred halfway between the
    # expected agreement with the true prototype and with any other one.
    agree_true = 1.0 - 2.0 * FLIP
    disagree = 2.0 * DENSITY * (1.0 - DENSITY)
    disagree = disagree * (1.0 - FLIP) + (1.0 - disagree) * FLIP
    agree_other = 1.0 - 2.0 * disagree
    centre = 0.5 * (agree_true + agree_other) * d
    scale = RECOGNITION_LOGIT / ((agree_true * d) - centre)
    w = np.zeros((sizes[1], d))
    b = np.full(sizes[1], NOISE_LOGIT)
    w[:m] = 2.0 * scale * sign
    b[:m] = -scale * (sign.sum(axis=1) + centre)
    q_layers = [bihm.model.BeliefLayer(w, b)]
    q_layers += [_copy_layer(sizes[i + 1], sizes[i]) for i in range(1, len(sizes) - 1)]

    prior = np.full(sizes[-1], NOISE_LOGIT)
    prior[:m] = _logit(1.0 / m)
    return bihm.model.BihmModel(
        sizes, bihm.model.FactorizedPrior(prior), tuple(p_layers), tuple(q_layers)
    )


def write_inputs(directory: str, seed: int, width: int, splits: dict, latent_sizes=None) -> dict:
    """Write ``<name>.bbm`` for each ``{name: rows}`` split, plus ``model.bihm``.

    The checkpoint is written only when ``latent_sizes`` is given.  Returns
    the paths by name.
    """
    os.makedirs(directory, exist_ok=True)
    protos, draw = mixture(seed, width)
    paths = {}
    for name, rows in splits.items():
        paths[name] = os.path.join(directory, f"{name}.bbm")
        bihm.io.save_dataset(draw(rows), paths[name])
    if latent_sizes is not None:
        paths["model"] = os.path.join(directory, "model.bihm")
        meta = {"fitted": "prototype mixture", "seed": seed, "prototypes": PROTOTYPES}
        bihm.io.save_checkpoint(fitted_model(protos, latent_sizes), meta, paths["model"])
    return paths
