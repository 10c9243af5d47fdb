"""The estimators' block loop: two blocks in flight, each on its own spawned stream.

Every test runs its work under :func:`bounded`, so a deadlock fails the test
instead of hanging the suite.  The worker thread is turned off by setting
``estimators._CPUS`` to 1, and forced on (whatever the machine) with 2.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bihm import estimators
from bihm.estimators import ZEstimateConfig, est_log_z2, estimate_rows
from bihm.model import random_model
from bihm.sampling import GibbsConfig, gibbs_sample_chains, inpaint_chains


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


# Each returns a list of arrays.  With the budgets below every call cuts its
# work into several blocks: 13 floats per sample, so 3 rows of 20 samples to
# a 1000-float share; rows of 500 samples in tiles of 76; 38 outer samples to
# a block; and Gibbs chains whose visible updates each run several blocks.
CALLS = {
    "rows": lambda: list(estimate_rows(MODEL, XS, 20, np.random.default_rng(142))),
    "tiled rows": lambda: list(estimate_rows(MODEL, XS[:5], 500, np.random.default_rng(143), squared=True)),
    "log Z2": log_z2,
    "gibbs": lambda: gibbs_sample_chains(MODEL, 30, GIBBS, np.random.default_rng(145)),
    "inpaint": lambda: [inpaint_chains(MODEL, XS[0], MASK, 30, GIBBS, np.random.default_rng(146))],
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
    calls = [CALLS["rows"], CALLS["log Z2"], CALLS["gibbs"]]
    alone = [run_with(monkeypatch, 1, 300, call) for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        switched = [run_with(monkeypatch, 2, 300, call) for call in calls]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(switched, alone):
        assert_same(a, b)


def test_both_threads_take_blocks(monkeypatch):
    # Blocks 0 and 1 wait for each other, so they can only finish if two
    # threads run them at once.
    monkeypatch.setattr(estimators, "_CPUS", 2)
    baseline = threading.active_count()
    both = threading.Barrier(2, timeout=10)
    threads = []

    def run(i):
        if i < 2:
            both.wait()
        threads.append(threading.get_ident())

    bounded(lambda: estimators._each_block(6, run))
    assert len(threads) == 6
    assert len(set(threads)) == 2
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
    threads, counts = [], []

    def run(i):
        threads.append(threading.get_ident())
        counts.append(threading.active_count())

    estimators._each_block(6, run)
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

    def run(i):
        if i < 2:
            both.wait()
        ran.append(i)
        if threading.get_ident() != caller[0]:
            raise ValueError("worker failed")
        # A block that takes a while, as real ones do, so the worker's
        # failure is recorded before the caller would run out of blocks.
        time.sleep(0.01)

    def call():
        caller.append(threading.get_ident())
        estimators._each_block(50, run)

    with pytest.raises(ValueError, match="worker failed"):
        bounded(call)
    assert len(ran) < 50
    assert threading.active_count() == baseline
