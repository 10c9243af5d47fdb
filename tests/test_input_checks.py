"""Every public entry point rejects a malformed visible input the same way.

One table lists the entry points that take a visible vector or batch, with
the axis count they expect and whether they need 0/1 entries (every entry
point that scores the visibles does).  Each gets a wrong width, a wrong axis
count and, where 0/1 is required, a 0.5 entry; batch entry points also get
an empty batch.  Shape faults raise ``ShapeError``; a non-binary entry raises
a plain ``ValueError``.  A second table gives a 0.5 entry to every other
scored target: latent layers and a layer's targets.
"""

import numpy as np
import pytest

from bihm.estimators import (
    draw_weighted_samples,
    est_log_p,
    est_log_p_rows,
    est_log_ptilde,
    est_log_ptilde_rows,
)
from bihm.model import (
    ShapeError,
    layer_log_prob,
    log_joint_p,
    log_q_given_x,
    random_model,
    sample_p_batch,
    sample_q_rows,
)
from bihm.oracle import exact_grad_log_ptilde, exact_log_p, exact_log_ptilde
from bihm.sampling import GibbsConfig, inpaint_chains
from bihm.training import TrainConfig, minibatch_gradient, train

MODEL = random_model((3, 2, 2), np.random.default_rng(0))
LATENTS = [np.zeros(2), np.ones(2)]
GIBBS = GibbsConfig(num_sweeps=1, proposals_per_step=2, ptilde_k=2)


def rng():
    return np.random.default_rng(1)


# name -> (axes of the visible argument, needs 0/1 entries, call with it)
ENTRY_POINTS = {
    "est_log_ptilde": (1, True, lambda x: est_log_ptilde(MODEL, x, 4, rng())),
    "est_log_p": (1, True, lambda x: est_log_p(MODEL, x, 4, rng())),
    "est_log_ptilde_rows": (2, True, lambda x: est_log_ptilde_rows(MODEL, x, 4, rng())),
    "est_log_p_rows": (2, True, lambda x: est_log_p_rows(MODEL, x, 4, rng())),
    "draw_weighted_samples": (1, True, lambda x: draw_weighted_samples(MODEL, x, 4, rng())),
    "minibatch_gradient": (2, True, lambda x: minibatch_gradient(MODEL, x, 4, rng())),
    "train": (2, True, lambda x: train(MODEL, x, TrainConfig(k_train=2, epochs=1), z_outer=5)),
    "train_valid": (
        2,
        True,
        lambda x: train(MODEL, np.eye(3), TrainConfig(k_train=2, epochs=1), valid=x, z_outer=5),
    ),
    "sample_q_rows": (2, False, lambda x: sample_q_rows(MODEL, x, 4, rng())),
    "exact_log_ptilde": (1, True, lambda x: exact_log_ptilde(MODEL, x)),
    "exact_log_p": (1, True, lambda x: exact_log_p(MODEL, x)),
    "exact_grad_log_ptilde": (1, True, lambda x: exact_grad_log_ptilde(MODEL, x)),
    "inpaint_chains_x": (1, True, lambda x: inpaint_chains(MODEL, x, np.ones(3), 2, GIBBS, rng())),
    "inpaint_chains_mask": (
        1,
        True,
        lambda m: inpaint_chains(MODEL, np.zeros(3), m, 2, GIBBS, rng()),
    ),
}

ROW = np.array([0.0, 1.0, 1.0])
BAD_INPUTS = {
    # fault -> (input for a vector entry point, input for a batch one, exception)
    "wrong_width": (np.zeros(4), np.zeros((2, 4)), ShapeError),
    "wrong_axes": (ROW[None], ROW, ShapeError),
    "half_entry": (np.array([0.0, 0.5, 1.0]), np.array([ROW, [0.0, 0.5, 1.0]]), ValueError),
    "empty_batch": (None, np.zeros((0, 3)), ShapeError),
}

CASES = [
    (name, fault)
    for name, (ndim, binary, _) in ENTRY_POINTS.items()
    for fault, (vector, batch, _) in BAD_INPUTS.items()
    if (fault != "half_entry" or binary) and (vector if ndim == 1 else batch) is not None
]


@pytest.mark.parametrize("name, fault", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_bad_visible_input_raises(name, fault):
    ndim, _, call = ENTRY_POINTS[name]
    vector, batch, error = BAD_INPUTS[fault]
    with pytest.raises(ValueError) as info:
        call(vector if ndim == 1 else batch)
    assert info.type is error


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_good_visible_input_is_accepted(name):
    ndim, _, call = ENTRY_POINTS[name]
    call(ROW if ndim == 1 else np.array([ROW, [1.0, 0.0, 0.0]]))


HALF = np.array([0.0, 0.5])
LAYER = MODEL.p_layers[0]

# name -> call that scores a 0.5 target other than a visible vector or batch
HALF_TARGETS = {
    "log_joint_p_x": lambda: log_joint_p(MODEL, np.array([0.0, 0.5, 1.0]), LATENTS),
    "log_joint_p_h": lambda: log_joint_p(MODEL, ROW, [HALF, np.ones(2)]),
    "log_q_given_x_h": lambda: log_q_given_x(MODEL, ROW, [np.zeros(2), HALF]),
    "layer_log_prob": lambda: layer_log_prob(LAYER, np.ones(2), np.array([1.0, 0.5, 0.0])),
}


@pytest.mark.parametrize("name", list(HALF_TARGETS))
def test_half_entry_target_raises(name):
    with pytest.raises(ValueError, match="entries must be 0 or 1") as info:
        HALF_TARGETS[name]()
    assert info.type is ValueError


def test_binary_targets_are_scored():
    assert np.isfinite(log_joint_p(MODEL, ROW, LATENTS))
    assert np.isfinite(log_q_given_x(MODEL, np.array([0.0, 0.5, 1.0]), LATENTS))
    assert np.isfinite(layer_log_prob(LAYER, np.array([0.5, 1.0]), np.array([1.0, 0.0, 0.0])))


@pytest.mark.parametrize("estimate", [est_log_ptilde_rows, est_log_p_rows])
@pytest.mark.parametrize("k", [0, -3])
def test_row_estimators_need_a_positive_sample_count(estimate, k):
    with pytest.raises(ValueError, match="k must be positive"):
        estimate(MODEL, np.array([ROW]), k, rng())


SAMPLERS = {
    "sample_q_rows": lambda k: sample_q_rows(MODEL, np.array([ROW]), k, rng()),
    "sample_p_batch": lambda k: sample_p_batch(MODEL, k, rng()),
}


@pytest.mark.parametrize("name", list(SAMPLERS))
@pytest.mark.parametrize("k", [0, -1])
def test_samplers_need_a_positive_sample_count(name, k):
    with pytest.raises(ValueError, match="k must be positive"):
        SAMPLERS[name](k)
