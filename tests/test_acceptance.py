"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Each test computes its verdict first, records a criterion line through
conftest.record_criterion (echoed after the pytest summary), and only then
asserts.  Tolerances are stated inline next to each check.
"""

import os
import struct

import numpy as np
import pytest
from scipy.special import logsumexp

from bihm.cli import main
from bihm.estimators import (
    ZEstimateConfig,
    ess,
    est_log_p,
    est_log_pstar,
    est_log_ptilde,
    est_log_z2,
    log_p_from_weights,
    log_ptilde_from_weights,
)
from bihm.io import (
    BadMagicError,
    FormatError,
    SizeMismatchError,
    TruncatedFileError,
    UnsupportedVersionError,
    load_checkpoint,
    load_dataset,
    read_pgm,
    save_checkpoint,
    save_dataset,
    write_pgm,
)
from bihm.model import random_model, zero_model
from bihm.oracle import (
    bit_matrix,
    config_index,
    exact_bhattacharyya,
    exact_grad_log_ptilde,
    exact_log_p,
    exact_log_pstar,
    exact_log_ptilde,
    exact_log_ptilde_by_x,
    exact_log_z2,
)
from bihm.sampling import GibbsConfig, gibbs_sample_chains, inpaint_chains
from bihm.training import TrainConfig, init_model, minibatch_gradient, train
from conftest import adult_data_dir, record_criterion

LN_QUARTER = float(np.log(0.25))


def small_random_sizes(rng, max_sizes=(6, 4, 3)):
    """Layer sizes capped per position, two or three layers."""
    sizes = [int(rng.integers(1, max_sizes[0] + 1)), int(rng.integers(1, max_sizes[1] + 1))]
    if rng.random() < 0.6:
        sizes.append(int(rng.integers(1, max_sizes[2] + 1)))
    return sizes


def flat_gradient(grad):
    return np.concatenate([a.reshape(-1) for _, a in grad.param_items()])


def test_criterion_01_exact_bound_suite():
    rng = np.random.default_rng(201)
    worst_z2 = -np.inf
    worst_gap_p = -np.inf
    worst_gap_pstar = -np.inf
    worst_identity = 0.0
    ok = True
    for _ in range(100):
        sizes = small_random_sizes(rng)
        model = random_model(
            sizes,
            rng,
            weight_scale=float(rng.uniform(0.3, 2.0)),
            bias_scale=float(rng.uniform(0.3, 1.5)),
        )
        by_x = exact_log_ptilde_by_x(model)
        z2 = exact_log_z2(model)
        worst_z2 = max(worst_z2, z2)
        ok = ok and z2 <= 1e-12
        xs = bit_matrix(model.visible_dim)
        for i in range(xs.shape[0]):
            gap_p = by_x[i] - exact_log_p(model, xs[i])
            gap_pstar = by_x[i] - (by_x[i] - z2)
            worst_gap_p = max(worst_gap_p, gap_p)
            worst_gap_pstar = max(worst_gap_pstar, gap_pstar)
            ok = ok and gap_p <= 1e-12 and gap_pstar <= 1e-12
        # the normalized and the shifted form of log pstar must agree even
        # though they enumerate the state space with different groupings
        for i in map(int, rng.integers(0, xs.shape[0], size=4)):
            lhs = by_x[i] - z2
            rhs = exact_log_ptilde(model, xs[i]) + 2.0 * exact_bhattacharyya(model)
            worst_identity = max(worst_identity, abs(lhs - rhs))
            ok = ok and abs(lhs - rhs) <= 1e-10
    detail = (
        f"100 models: max log_z2 {worst_z2:.3e} (<= 0), "
        f"max log_ptilde - log_p {worst_gap_p:.3e} (<= 0), "
        f"max log_ptilde - log_pstar {worst_gap_pstar:.3e} (<= 0), "
        f"max identity error {worst_identity:.3e} (tol 1e-10)"
    )
    record_criterion(1, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_02_estimator_convergence():
    rng = np.random.default_rng(202)
    k = 100_000
    hits = {"ptilde": 0, "p": 0, "z2": 0, "linear": 0}
    for _ in range(20):
        sizes = [int(rng.integers(2, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 3))]
        model = random_model(sizes, rng, weight_scale=float(rng.uniform(0.5, 1.5)))
        x = (rng.random(sizes[0]) < 0.5).astype(np.float64)
        exact_pt = exact_log_ptilde(model, x)
        exact_p = exact_log_p(model, x)
        exact_z = exact_log_z2(model)
        r_pt, r_p, r_z = rng.spawn(3)
        e_pt = est_log_ptilde(model, x, k, r_pt)
        e_p = est_log_p(model, x, k, r_p)
        e_z = est_log_z2(model, ZEstimateConfig(k_outer=k, k_inner=1), r_z)
        hits["ptilde"] += abs(e_pt.value - exact_pt) <= 3.0 * e_pt.std_error
        hits["p"] += abs(e_p.value - exact_p) <= 3.0 * e_p.std_error
        hits["z2"] += abs(e_z.value - exact_z) <= 3.0 * e_z.std_error
        # the z2 estimator averages in the linear domain, so its mean is
        # unbiased there; the delta-method scale converts the log-domain se
        linear_err = abs(np.exp(e_z.value) - np.exp(exact_z))
        hits["linear"] += linear_err <= 4.0 * np.exp(e_z.value) * e_z.std_error
    ok = all(count >= 19 for count in hits.values())
    detail = (
        f"20 models at K={k}: within 3 SE ptilde {hits['ptilde']}/20, "
        f"p {hits['p']}/20, log_z2 {hits['z2']}/20; "
        f"linear Z^2 within 4 SE {hits['linear']}/20 (threshold 19/20 each)"
    )
    record_criterion(2, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_03_gradient_checks():
    rng = np.random.default_rng(203)
    eps = 1e-5
    worst_fd = 0.0
    worst_cos = 1.0
    for _ in range(20):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 3))]
        model = random_model(sizes, rng, weight_scale=float(rng.uniform(0.5, 1.5)))
        x = (rng.random(sizes[0]) < 0.5).astype(np.float64)
        grad = exact_grad_log_ptilde(model, x)
        params = [a.copy() for _, a in model.param_items()]
        grads = dict(grad.param_items())
        for idx, (name, _) in enumerate(model.param_items()):
            flat = params[idx].reshape(-1)
            gflat = grads[name].reshape(-1)
            for pos in range(flat.size):
                orig = flat[pos]
                flat[pos] = orig + eps
                hi = exact_log_ptilde(model.with_params(params), x)
                flat[pos] = orig - eps
                lo = exact_log_ptilde(model.with_params(params), x)
                flat[pos] = orig
                fd = (hi - lo) / (2.0 * eps)
                scale = max(abs(fd), abs(gflat[pos]), 1e-8)
                worst_fd = max(worst_fd, abs(fd - gflat[pos]) / scale)
        sampled = flat_gradient(minibatch_gradient(model, x[None, :], 100_000, rng))
        exact_flat = flat_gradient(grad)
        cos = float(
            sampled @ exact_flat
            / max(np.linalg.norm(sampled) * np.linalg.norm(exact_flat), 1e-300)
        )
        worst_cos = min(worst_cos, cos)
    ok = worst_fd <= 1e-6 and worst_cos >= 0.99
    detail = (
        f"20 models: max finite-difference rel. error {worst_fd:.3e} (tol 1e-6); "
        f"min sampled-gradient cosine at K=100000: {worst_cos:.5f} (>= 0.99)"
    )
    record_criterion(3, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_04_shared_sample_inequality():
    rng = np.random.default_rng(204)
    violations = 0
    cases = 10_000
    for _ in range(cases):
        size = int(rng.integers(1, 65))
        scale = float(rng.uniform(0.01, 3.0))
        log_w = rng.normal(scale=scale, size=size) - rng.uniform(0.0, 50.0)
        if log_p_from_weights(log_w).value < log_ptilde_from_weights(log_w).value:
            violations += 1
    ok = violations == 0
    detail = f"{cases} random weight vectors (K in 1..64): {violations} violations of est_log_p >= est_log_ptilde"
    record_criterion(4, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_05_ess_properties():
    rng = np.random.default_rng(205)
    ok = True
    max_shift_err = 0.0
    for _ in range(2000):
        size = int(rng.integers(1, 200))
        log_w = rng.normal(scale=float(rng.uniform(0.1, 5.0)), size=size)
        value = ess(log_w)
        ok = ok and 1.0 <= value <= size
        for c in (-500.0, 123.456, 1e3):
            err = abs(ess(log_w + c) - value)
            max_shift_err = max(max_shift_err, err)
            ok = ok and err <= 1e-9 * size
    ok = ok and ess(np.full(64, -7.5)) == 64.0
    ok = ok and ess(np.array([0.0, -np.inf, -np.inf])) == 1.0
    detail = (
        "2000 random vectors in [1, K]; equal weights give exactly K; "
        f"one dominant weight gives 1.0; max shift error {max_shift_err:.3e} "
        "(tol 1e-9 per unit K)"
    )
    record_criterion(5, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_06_gibbs_stationarity_and_clamping():
    model = random_model([3, 2], np.random.default_rng(61))
    exact = np.exp(exact_log_ptilde_by_x(model) - exact_log_z2(model))
    config = GibbsConfig(num_sweeps=10, proposals_per_step=10)
    chains = gibbs_sample_chains(model, 100_000, config, np.random.default_rng(62))
    codes = chains[0] @ (2.0 ** np.arange(2, -1, -1))
    counts = np.bincount(codes.astype(int), minlength=8)
    tv = 0.5 * np.abs(counts / counts.sum() - exact).sum()

    x_corrupt = np.array([1.0, 0.0, 1.0])
    mask = np.array([1.0, 0.0, 1.0])
    completions = inpaint_chains(
        model, x_corrupt, mask, 200, GibbsConfig(num_sweeps=3), np.random.default_rng(63)
    )
    observed_intact = bool(
        np.all(completions[:, 0] == 1.0) and np.all(completions[:, 2] == 1.0)
    )
    ok = tv <= 0.05 and observed_intact
    detail = (
        f"100000 chains x 10 sweeps: TV(empirical, exact pstar) = {tv:.4f} "
        f"(tol 0.05); observed bits intact in 200/200 completions: {observed_intact}"
    )
    record_criterion(6, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_07_zero_model_identities():
    model = zero_model([2, 1])
    x = np.array([0.0, 1.0])
    rng = np.random.default_rng(207)
    exact_vals = (
        exact_log_ptilde(model, x),
        exact_log_p(model, x),
        exact_log_pstar(model, x),
    )
    e_pt = est_log_ptilde(model, x, 64, rng)
    e_p = est_log_p(model, x, 64, rng)
    e_star = est_log_pstar(model, x, 64, 0.0, rng)
    e_z = est_log_z2(model, ZEstimateConfig(k_outer=256, k_inner=1), rng)
    max_err = max(abs(v - LN_QUARTER) for v in exact_vals)
    max_est_err = max(abs(e.value - LN_QUARTER) for e in (e_pt, e_p, e_star))
    ok = (
        max_err <= 1e-12
        and max_est_err <= 1e-12
        and e_pt.std_error == 0.0
        and e_p.std_error == 0.0
        and exact_log_z2(model) == 0.0
        and e_z.value == 0.0
        and e_z.std_error == 0.0
        and ess(np.zeros(64)) == 64.0
    )
    detail = (
        f"[2, 1] zero model: exact and estimated log ptilde/p/pstar within "
        f"{max(max_err, max_est_err):.2e} of ln 0.25 (tol 1e-12); "
        f"log_z2 exact {exact_log_z2(model)} and estimated {e_z.value} (both 0.0); "
        "uniform-weight ESS = K"
    )
    record_criterion(7, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_08_census_benchmark():
    data_dir = adult_data_dir()
    if data_dir is None:
        detail = (
            "binary census dataset not found (looked in $BIHM_DATA_DIR, "
            "tests/data, ../data for adult_{train,valid,test}.amat); "
            "benchmark needs the external files"
        )
        record_criterion(8, "SKIP", detail)
        pytest.skip(detail)
    train_set = load_dataset(os.path.join(data_dir, "adult_train.amat"))
    valid_set = load_dataset(os.path.join(data_dir, "adult_valid.amat"))
    test_set = load_dataset(os.path.join(data_dir, "adult_test.amat"))
    visible = train_set.cols
    model = init_model((visible, 100, 70, 50, 25), seed=8)
    config = TrainConfig(
        k_train=10, learning_rate=1e-3, batch_size=100, epochs=200, seed=8
    )
    model, history = train(model, train_set.data, config, valid=valid_set.data)
    rng = np.random.default_rng(88)
    z = est_log_z2(model, ZEstimateConfig(k_outer=100_000, k_inner=1), rng)
    values = [
        est_log_pstar(model, row, 1000, z.value, rng).value for row in test_set.data
    ]
    nll = -float(np.mean(values))
    minus_two_log_z = -z.value
    ok = nll <= 14.5 and 0.0 <= minus_two_log_z <= 0.5
    detail = (
        f"census test NLL {nll:.3f} (<= 14.5 target, reference run 13.82); "
        f"-2 log Z = {minus_two_log_z:.3f} (in [0, 0.5]); "
        f"{history[-1]['updates']} updates"
    )
    record_criterion(8, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_09_declared_substitutions(bars_training_run, tmp_path):
    model, _, _ = bars_training_run
    ck_path = str(tmp_path / "bars.bihm")
    save_checkpoint(model, {}, ck_path)
    base = ["sample", "--model", ck_path, "--count", "8", "--binary", "--seed", "90"]
    rc_a = main(base + ["--gibbs", "0", "--out", str(tmp_path / "ancestral")])
    rc_b = main(base + ["--gibbs", "10", "--out", str(tmp_path / "gibbs")])
    files_a = sorted(os.listdir(tmp_path / "ancestral"))
    blob_a = b"".join(
        open(os.path.join(tmp_path, "ancestral", n), "rb").read() for n in files_a
    )
    blob_b = b"".join(
        open(os.path.join(tmp_path, "gibbs", n), "rb").read()
        for n in sorted(os.listdir(tmp_path / "gibbs"))
    )
    ok = rc_a == 0 and rc_b == 0 and len(files_a) == 8 and blob_a != blob_b
    detail = (
        "full-scale image benchmarks are out of desk budget by declaration; "
        "covered instead by criteria 1-7 plus this check: 10 Gibbs sweeps "
        f"change sampled images vs ancestral output at equal seed ({'differs' if blob_a != blob_b else 'identical'})"
    )
    record_criterion(9, "PASS" if ok else "FAIL", detail)
    assert ok, detail


def test_criterion_10_format_suite(tmp_path):
    rng = np.random.default_rng(210)
    ok = True

    # 100 packed-dataset round trips, re-serialization byte-identical
    for i in range(100):
        rows = int(rng.integers(0, 25))
        cols = int(rng.integers(1, 41))
        data = (rng.random((rows, cols)) < rng.uniform(0.1, 0.9)).astype(np.float64)
        path_a = str(tmp_path / "a.bbm")
        path_b = str(tmp_path / "b.bbm")
        save_dataset(data, path_a)
        loaded = load_dataset(path_a)
        save_dataset(loaded.data, path_b)
        ok = ok and np.array_equal(loaded.data, data)
        ok = ok and open(path_a, "rb").read() == open(path_b, "rb").read()

    # 10 checkpoint round trips with metadata
    for i in range(10):
        sizes = small_random_sizes(rng)
        model = random_model(sizes, rng)
        meta = {"run": i, "note": "acceptance", "tags": ["a", "b"]}
        path_a = str(tmp_path / "a.bihm")
        path_b = str(tmp_path / "b.bihm")
        save_checkpoint(model, meta, path_a)
        ck = load_checkpoint(path_a)
        save_checkpoint(ck.model, ck.metadata, path_b)
        ok = ok and ck.metadata == meta
        for (name, orig), (name2, back) in zip(
            model.param_items(), ck.model.param_items()
        ):
            ok = ok and name == name2 and np.array_equal(orig, back)
        ok = ok and open(path_a, "rb").read() == open(path_b, "rb").read()

    # PGM round trip at byte resolution
    values = np.arange(256, dtype=np.float64) / 255.0
    pgm_path = str(tmp_path / "ramp.pgm")
    write_pgm(values, 16, 16, pgm_path)
    back, width, height = read_pgm(pgm_path)
    ok = ok and (width, height) == (16, 16) and np.array_equal(back, values)

    # corruption corpus: every damaged file raises a typed format error
    save_dataset((rng.random((4, 9)) < 0.5).astype(np.float64), str(tmp_path / "good.bbm"))
    bbm = open(tmp_path / "good.bbm", "rb").read()
    save_checkpoint(random_model([3, 2], rng), {"k": 1}, str(tmp_path / "good.bihm"))
    ckb = open(tmp_path / "good.bihm", "rb").read()
    write_pgm(np.array([0.0, 1.0, 0.5, 0.25]), 2, 2, str(tmp_path / "good.pgm"))
    pgm = open(tmp_path / "good.pgm", "rb").read()

    corpus = [
        (b"XXXXDATA" + bbm[8:], BadMagicError),
        (bbm[:8] + struct.pack("<I", 9) + bbm[12:], UnsupportedVersionError),
        (bbm[:-1], TruncatedFileError),
        (bbm[:10], TruncatedFileError),
        (bbm + b"\x00", SizeMismatchError),
        (b"XXXXMODL" + ckb[8:], BadMagicError),
        (ckb[:8] + struct.pack("<I", 9) + ckb[12:], UnsupportedVersionError),
        (ckb[:18], TruncatedFileError),
        (ckb[:-3], TruncatedFileError),
        (ckb + b"\x00\x00", SizeMismatchError),
        (b"P6" + pgm[2:], BadMagicError),
        (pgm.replace(b"255", b"65535"), FormatError),
        (pgm[:-2], TruncatedFileError),
    ]
    loaders = {".bbm": load_dataset, ".bihm": load_checkpoint, ".pgm": read_pgm}
    raised = 0
    for idx, (blob, expected) in enumerate(corpus):
        if blob[:8] in (b"BIHMDATA", b"XXXXDATA"):
            ext = ".bbm"
        elif blob[:2] in (b"P5", b"P6"):
            ext = ".pgm"
        else:
            ext = ".bihm"
        bad_path = str(tmp_path / f"bad_{idx}{ext}")
        with open(bad_path, "wb") as fh:
            fh.write(blob)
        try:
            loaders[ext](bad_path)
        except expected:
            raised += 1
        except FormatError:
            pass  # wrong subclass: counts as a failure below
    ok = ok and raised == len(corpus)
    detail = (
        "100 dataset and 10 checkpoint round trips byte-identical, PGM ramp "
        f"round trip exact, {raised}/{len(corpus)} corruption variants raised "
        "the expected typed errors"
    )
    record_criterion(10, "PASS" if ok else "FAIL", detail)
    assert ok, detail
