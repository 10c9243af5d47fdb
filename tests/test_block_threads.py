"""The package's one block loop, ``estimators._each_block``: the estimators'
row blocks, the gradient's row blocks and the Gibbs chain blocks, cut by one
rule into two lanes, each block on its own spawned stream.

Every test runs its work under :func:`bounded`, so a deadlock fails the test
instead of hanging the suite.  The worker thread is turned off by setting
``estimators._CPUS`` to 1, and forced on (whatever the machine) with 2.
"""

import functools
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bihm import estimators, sampling, training
from bihm.estimators import ZEstimateConfig, est_log_z2, estimate_rows
from bihm.model import random_model
from bihm.sampling import GibbsConfig, gibbs_sample_chains, inpaint_chains
from bihm.training import minibatch_gradient


def bounded(call, seconds=60.0):
    """``call()``'s result; fails if it has not returned within ``seconds``."""
    results, errors = [], []

    def target():
        try:
            results.append(call())
        except BaseException as exc:
            errors.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), f"no result within {seconds} s"
    if errors:
        raise errors[0]
    return results[0]


MODEL = random_model([6, 4, 3], np.random.default_rng(140), weight_scale=1.5)
XS = (np.random.default_rng(141).random((40, 6)) < 0.5).astype(np.float64)
GIBBS = GibbsConfig(num_sweeps=2, proposals_per_step=5)
MASK = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def log_z2():
    z = est_log_z2(MODEL, ZEstimateConfig(3000, 2), np.random.default_rng(144))
    return [np.array([z.value, z.std_error])]


def visible_log_terms():
    # 6 chains of 5 candidates, 80 shared samples of 18 floats each (13 bits
    # and 5 cross terms): tiles of 55 and 25 samples to a 1000-float share,
    # so 6 spans of one chain, two tiles each, with no chain block around them.
    rng = np.random.default_rng(150)
    cand = (rng.random((6, 5, 6)) < 0.5).astype(np.float64)
    h1 = (rng.random((6, 4)) < 0.5).astype(np.float64)
    return list(sampling._visible_log_terms(MODEL, cand, h1, 80, rng))


# Each returns a list of arrays.  With the budgets below every call but the
# one-chain one cuts its work into several blocks or spans, and the block
# loops run their blocks in two lanes when two CPUs may: 13 floats per
# sample, so 3 rows of 20 samples to a 1000-float share; rows of 500 samples
# in tiles of 76, one row to a block; 38 outer samples to a block; the
# visible update's 6 chains in 6 spans of two sample tiles, all on the
# calling thread; chains of 5 proposals on 6 visibles, 30 floats each, 33 to
# a 1000-float share, so 30 Gibbs chains run as two even chain blocks of 15,
# one per lane, whose visible updates run their spans on the block's thread
# and stream, and 200 chains as 7 chain blocks of up to 33; one chain is one
# block; and gradient rows of 10 samples, 130 floats, in 6 blocks of up to 7
# rows at 2000 floats and 40 one-row blocks at 300.
CALLS = {
    "rows": lambda: list(estimate_rows(MODEL, XS, 20, np.random.default_rng(142))),
    "tiled rows": lambda: list(estimate_rows(MODEL, XS[:5], 500, np.random.default_rng(143), squared=True)),
    "log Z2": log_z2,
    "visible log terms": visible_log_terms,
    "one chain": lambda: gibbs_sample_chains(MODEL, 1, GIBBS, np.random.default_rng(151)),
    "gibbs": lambda: gibbs_sample_chains(MODEL, 30, GIBBS, np.random.default_rng(145)),
    "inpaint": lambda: [inpaint_chains(MODEL, XS[0], MASK, 30, GIBBS, np.random.default_rng(146))],
    "gibbs chain blocks": lambda: gibbs_sample_chains(MODEL, 200, GIBBS, np.random.default_rng(148)),
    "inpaint chain blocks": lambda: [inpaint_chains(MODEL, XS[1], MASK, 200, GIBBS, np.random.default_rng(149))],
    "gradient": lambda: [minibatch_gradient(MODEL, XS, 10, np.random.default_rng(147)).params],
}


def run_with(monkeypatch, cpus, budget, call):
    monkeypatch.setattr(estimators, "_CPUS", cpus)
    monkeypatch.setattr(estimators, "_BLOCK_FLOATS", budget)
    return bounded(call)


def assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert_array_equal(x, y)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_worker_on_and_off_give_identical_results(monkeypatch, name):
    call = CALLS[name]
    alone = run_with(monkeypatch, 1, 2000, call)
    assert_same(run_with(monkeypatch, 2, 2000, call), alone)
    assert_same(run_with(monkeypatch, 2, 2000, call), alone)


def test_identical_under_constant_thread_switching(monkeypatch):
    # A one-microsecond switch interval interleaves the two threads as finely
    # as the interpreter allows; tiny blocks make many of them.
    calls = [CALLS["rows"], CALLS["log Z2"], CALLS["gibbs"], CALLS["gradient"]]
    alone = [run_with(monkeypatch, 1, 300, call) for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        switched = [run_with(monkeypatch, 2, 300, call) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(switched, alone):
        assert_same(a, b)


def test_no_block_loop_runs_inside_a_block(monkeypatch):
    # Each block loop's depth is one more than that of the block it starts
    # in, on whichever thread that block runs; every loop starts outside any
    # block, so no more than the caller and one worker ever run.
    original = estimators._each_block
    inside = threading.local()
    depths, counts = [], []

    def counting(n, item_floats, rng, run):
        depth = getattr(inside, "depth", 0) + 1
        depths.append(depth)

        def block(*args):
            outer = getattr(inside, "depth", 0)
            inside.depth = depth
            counts.append(threading.active_count())
            try:
                run(*args)
            finally:
                inside.depth = outer

        original(n, item_floats, rng, block)

    def measured(call):
        started = threading.active_count()
        call()
        return started

    for module in (estimators, sampling, training):
        monkeypatch.setattr(module, "_each_block", counting)
    deepest = {}
    for name, call in CALLS.items():
        depths.clear()
        counts.clear()
        started = run_with(monkeypatch, 2, 2000, functools.partial(measured, call))
        deepest[name] = max(depths, default=0)
        assert max(counts, default=started) <= started + 1, name
    # The visible update alone starts no block loop at all.
    assert deepest == {name: 0 if name == "visible log terms" else 1 for name in CALLS}


def started_workers(monkeypatch):
    """A list that records each block-loop worker started from now on."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            if self.name == "bihm-blocks":
                started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return started


@pytest.mark.parametrize("name, workers", [("one chain", 0), ("gibbs", 1), ("inpaint", 1)])
def test_few_chains_start_one_worker_at_most(monkeypatch, name, workers):
    # One chain is one block, run on the calling thread.  Two lanes' worth
    # of chains start the worker once, for the chain blocks; the visible
    # updates' spans inside them start none.
    started = started_workers(monkeypatch)
    run_with(monkeypatch, 2, 2000, CALLS[name])
    assert len(started) == workers


# Loops whose items do not fit the budget two at a time, each with its
# budget: gradient rows of 10 samples, 130 floats, at 130; and 7 Gibbs
# chains of 30 candidate floats at 59, one chain to a block.
ONE_LANE = {
    "gradient rows": (10 * sum(MODEL.layer_sizes), CALLS["gradient"]),
    "gibbs chains": (2 * 30 - 1, lambda: gibbs_sample_chains(MODEL, 7, GIBBS, np.random.default_rng(152))),
}


@pytest.mark.parametrize("name", sorted(ONE_LANE))
def test_items_over_half_the_budget_run_on_the_calling_thread(monkeypatch, name):
    budget, call = ONE_LANE[name]
    started = started_workers(monkeypatch)
    alone = run_with(monkeypatch, 1, budget, call)
    assert_same(run_with(monkeypatch, 2, budget, call), alone)
    assert started == []


def half_the_budget():
    """Floats of an item that is a block of its own and still runs in two lanes."""
    return estimators._BLOCK_FLOATS // estimators._IN_FLIGHT


def test_both_threads_take_blocks(monkeypatch):
    # Blocks 0 and 1, one in each lane, wait for each other, so they can
    # only finish if two threads run them at once.
    monkeypatch.setattr(estimators, "_CPUS", 2)
    baseline = threading.active_count()
    both = threading.Barrier(2, timeout=10)
    ran = []

    def run(lane, start, stop, rng):
        if start < 2:
            both.wait()
        ran.append((lane, threading.get_ident()))

    bounded(lambda: estimators._each_block(6, half_the_budget(), np.random.default_rng(0), run))
    # Six blocks, and each lane on a thread of its own.
    assert len(ran) == 6
    assert len(set(ran)) == 2 and len({thread for _, thread in ran}) == 2
    assert threading.active_count() == baseline


@pytest.mark.parametrize(
    "blas_env, pinned",
    [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ],
)
def test_worker_runs_only_when_blas_is_pinned(blas_env, pinned):
    # Read at import, so each case imports the package in a fresh process.
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(blas_env, PYTHONPATH=os.path.dirname(os.path.dirname(estimators.__file__)))
    code = "from bihm import estimators; print(estimators._CPUS)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert int(out.stdout) == (cpus if pinned else 1)


def test_one_cpu_runs_every_block_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(estimators, "_CPUS", 1)
    baseline = threading.active_count()
    blocks, threads, counts = [], [], []

    def run(lane, start, stop, rng):
        blocks.append((lane, start, stop))
        threads.append(threading.get_ident())
        counts.append(threading.active_count())

    estimators._each_block(6, half_the_budget(), np.random.default_rng(0), run)
    assert blocks == [(i % 2, i, i + 1) for i in range(6)]
    assert threads == [threading.get_ident()] * 6
    assert counts == [baseline] * 6


def test_error_in_a_block_propagates_and_stops_the_loop(monkeypatch):
    baseline = threading.active_count()
    original = estimators.log_weights
    lock = threading.Lock()
    calls = []

    def failing(*args, **kwargs):
        with lock:
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("block failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "log_weights", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        run_with(monkeypatch, 2, 520, CALLS["rows"])
    # 40 rows of 20 samples at 13 floats each: one row and one tile to a
    # block, so a loop that went on would call log_weights 40 times.
    assert len(calls) < 40
    assert threading.active_count() == baseline


def test_error_on_the_worker_is_raised_in_the_caller(monkeypatch):
    monkeypatch.setattr(estimators, "_CPUS", 2)
    baseline = threading.active_count()
    both = threading.Barrier(2, timeout=10)
    caller, ran = [], []

    def run(lane, start, stop, rng):
        if start < 2:
            both.wait()
        ran.append(start)
        if threading.get_ident() != caller[0]:
            raise ValueError("worker failed")
        # A block that takes a while, as real ones do, so the worker's
        # failure is recorded before the caller would run out of blocks.
        time.sleep(0.01)

    def call():
        caller.append(threading.get_ident())
        estimators._each_block(50, half_the_budget(), np.random.default_rng(0), run)

    with pytest.raises(ValueError, match="worker failed"):
        bounded(call)
    assert len(ran) < 50
    assert threading.active_count() == baseline
