"""Command-line surface: train, eval, zest, sample, inpaint, oracle.

Every command exits 0 on success.  Failures print exactly one line to stderr
of the form ``error: <ErrorType>: <detail>`` and exit nonzero, so callers can
branch on the second field.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from bihm.estimators import (
    ZEstimateConfig,
    _logsumexp,
    est_log_z2,
    est_log_p_rows,
    est_log_ptilde_rows,
)
from bihm.io import (
    FormatError,
    append_metrics,
    load_checkpoint,
    load_dataset,
    read_pgm,
    save_checkpoint,
    write_pgm,
)
from bihm.model import BihmModel, ShapeError, random_model, sample_p_batch
from bihm.oracle import (
    EnumerationLimitError,
    _log_p,
    exact_grad_log_ptilde,
    exact_log_ptilde,
    exact_log_ptilde_by_x,
    bit_matrix,
)
from bihm.sampling import GibbsConfig, expected_visible, gibbs_sample_chains, inpaint_chains
from bihm.training import (
    TrainConfig,
    TrainingDiverged,
    init_model,
    minibatch_gradient,
    train,
)

__all__ = ["main"]


def _parse_sizes(text: str) -> tuple:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"layer sizes must be comma-separated integers, got {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive integers, got {text!r}")
    return sizes


def _geometry(length: int, width, height) -> tuple:
    if (width is None) != (height is None):
        raise ValueError("pass both --width and --height, or neither")
    if width is not None:
        if width < 1 or height < 1:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
        if width * height != length:
            raise ValueError(f"{width}x{height} does not match {length} pixels")
        return width, height
    side = math.isqrt(length)
    if side * side != length:
        raise ValueError(
            f"{length} pixels is not square; pass --width and --height"
        )
    return side, side


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _cmd_train(args) -> int:
    data = load_dataset(args.data)
    valid = load_dataset(args.valid).data if args.valid else None
    latent_sizes = _parse_sizes(args.layers)
    sizes = (data.cols,) + latent_sizes
    model = init_model(sizes, args.seed)

    def report(metrics, _model):
        print(
            "epoch {epoch} updates {updates} train {train_logptilde:.4f} "
            "valid {valid_logptilde:.4f} 2logZ {two_log_z:.4f} "
            "ess {ess_pct:.1f}% {seconds:.1f}s".format(**metrics)
        )
        if args.metrics:
            append_metrics(args.metrics, metrics)

    config = TrainConfig(
        k_train=args.k,
        learning_rate=args.lr,
        batch_size=args.batch,
        l1_lambda=args.l1,
        epochs=args.epochs,
        seed=args.seed,
    )
    # Phase 2's options are checked, even with phase 2 off (which runs no
    # epoch of ``fine``), before phase 1 spends its epochs.
    if args.finetune_epochs < 0:
        raise ValueError(f"--finetune-epochs must be nonnegative, got {args.finetune_epochs}")
    fine = dataclasses.replace(
        config,
        k_train=args.finetune_k or args.k,
        learning_rate=args.finetune_lr if args.finetune_lr is not None else args.lr,
        epochs=max(args.finetune_epochs, 1),
        seed=args.seed + 1,
    )
    model, history = train(model, data.data, config, valid=valid, callbacks=[report])

    if args.finetune_epochs > 0:
        model, more = train(
            model,
            data.data,
            fine,
            valid=valid,
            callbacks=[report],
            start_epoch=history[-1]["epoch"],
            start_updates=history[-1]["updates"],
        )
        history = history + more

    metadata = {
        "layers": list(sizes),
        "k": args.k,
        "lr": args.lr,
        "batch": args.batch,
        "epochs": args.epochs,
        "l1": args.l1,
        "seed": args.seed,
        "data": data.name,
        "finetune_k": args.finetune_k,
        "finetune_lr": args.finetune_lr,
        "finetune_epochs": args.finetune_epochs,
        "final_train_logptilde": history[-1]["train_logptilde"],
        "final_two_log_z": history[-1]["two_log_z"],
    }
    save_checkpoint(model, metadata, args.out)
    print(f"train wrote {args.out} after {history[-1]['updates']} updates")
    return 0


# ---------------------------------------------------------------------------
# eval / zest
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    z_config = ZEstimateConfig(args.z_outer, args.z_inner)
    model = load_checkpoint(args.model).model
    data = load_dataset(args.data)
    rng = np.random.default_rng(args.seed)
    z_part = ""
    z_se = 0.0
    if args.estimator == "p":
        values, ses = est_log_p_rows(model, data.data, args.k, rng)
    else:
        values, ses = est_log_ptilde_rows(model, data.data, args.k, rng)
        if args.estimator == "pstar":
            z = est_log_z2(model, z_config, rng)
            # One log Z^2 estimate is shared by every row, so its error does
            # not average down with the row count.
            values = values - z.value
            z_se = z.std_error
            z_part = f" log_z2={z.value:.6f}"
    mean = float(values.mean())
    se = math.hypot(float(np.sqrt(np.sum(ses**2)) / len(values)), z_se)
    print(
        f"eval estimator={args.estimator} mean={mean:.6f} se={se:.6f} "
        f"rows={data.rows} k={args.k}{z_part}"
    )
    return 0


def _cmd_zest(args) -> int:
    model = load_checkpoint(args.model).model
    rng = np.random.default_rng(args.seed)
    z = est_log_z2(model, ZEstimateConfig(args.k_outer, args.k_inner), rng)
    print(
        f"zest log_z2={z.value:.6f} se={z.std_error:.6f} "
        f"bhattacharyya={-0.5 * z.value:.6f} k_outer={args.k_outer} k_inner={args.k_inner}"
    )
    return 0


# ---------------------------------------------------------------------------
# sample / inpaint
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    model = load_checkpoint(args.model).model
    if args.count < 1:
        raise ValueError("count must be positive")
    if args.gibbs < 0:
        raise ValueError("gibbs sweeps must be non-negative")
    if args.prop_k < 1:
        raise ValueError("--prop-k must be positive")
    width, height = _geometry(model.visible_dim, args.width, args.height)
    rng = np.random.default_rng(args.seed)
    if args.gibbs > 0:
        config = GibbsConfig(num_sweeps=args.gibbs, proposals_per_step=args.prop_k)
        chains = gibbs_sample_chains(model, args.count, config, rng)
        x, h1 = chains[0], chains[1]
    else:
        x, layers = sample_p_batch(model, args.count, rng)
        h1 = layers[0]
    pixels = expected_visible(model, h1) if args.expected else x
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        write_pgm(pixels[i], width, height, os.path.join(args.out, f"sample_{i:03d}.pgm"))
    print(f"sample wrote {args.count} images to {args.out}")
    return 0


def _cmd_inpaint(args) -> int:
    model = load_checkpoint(args.model).model
    image, width, height = read_pgm(args.image)
    mask, mw, mh = read_pgm(args.mask)
    if (mw, mh) != (width, height):
        raise ValueError(f"mask is {mw}x{mh}, image is {width}x{height}")
    if width * height != model.visible_dim:
        raise ShapeError(
            f"image has {width * height} pixels, model expects {model.visible_dim}"
        )
    x = (image >= 0.5).astype(np.float64)
    m = (mask >= 0.5).astype(np.float64)
    rng = np.random.default_rng(args.seed)
    config = GibbsConfig(num_sweeps=args.gibbs)
    completed = inpaint_chains(model, x, m, 1, config, rng)[0]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "inpainted.pgm")
    write_pgm(completed, width, height, out_path)
    print(f"inpaint wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


# The oracle checks share one enumeration: ``table`` is exact_log_ptilde_by_x
# and ``lz2`` its log-sum-exp, the exact log Z^2.


def _check_bound(model, table, lz2) -> list:
    results = [("z2_nonpositive", lz2 <= 0.0, f"log_z2={lz2:.6f}")]
    xs = bit_matrix(model.visible_dim)
    worst_p = -np.inf
    worst_star = -np.inf
    worst_ident = 0.0
    for row, lpt, lp in zip(xs, table, _log_p(model, None)):
        lps = exact_log_ptilde(model, row) - lz2
        worst_p = max(worst_p, lpt - lp)
        worst_star = max(worst_star, lpt - lps)
        worst_ident = max(worst_ident, abs(lps - (lpt - lz2)))
    results.append(("ptilde_below_p", worst_p <= 0.0, f"max gap {worst_p:.3e}"))
    results.append(("ptilde_below_pstar", worst_star <= 0.0, f"max gap {worst_star:.3e}"))
    results.append(("identity", worst_ident <= 1e-10, f"max residual {worst_ident:.3e}"))
    return results


def _check_z(model, lz2, k, rng) -> list:
    z = est_log_z2(model, ZEstimateConfig(k, 1), rng)
    dev = abs(z.value - lz2) / max(z.std_error, 1e-300)
    return [("z_estimate", dev <= 4.0, f"exact={lz2:.5f} est={z.value:.5f} dev={dev:.2f} SE")]


def _check_grad(model, k, rng) -> list:
    x = (rng.random(model.visible_dim) < 0.5).astype(np.float64)
    exact = exact_grad_log_ptilde(model, x).params

    eps = 1e-5
    worst = 0.0
    params = model.params.copy()
    for j in range(params.shape[0]):
        orig = params[j]
        params[j] = orig + eps
        hi = exact_log_ptilde(BihmModel.from_params(model.layer_sizes, params), x)
        params[j] = orig - eps
        lo = exact_log_ptilde(BihmModel.from_params(model.layer_sizes, params), x)
        params[j] = orig
        fd = (hi - lo) / (2 * eps)
        scale = max(abs(fd), abs(exact[j]), 1e-8)
        worst = max(worst, abs(fd - exact[j]) / scale)
    results = [("grad_fd", worst <= 1e-6, f"max rel err {worst:.2e}")]

    est = minibatch_gradient(model, x[None, :], k, rng).params
    cos = float(est @ exact / (np.linalg.norm(est) * np.linalg.norm(exact)))
    results.append(("grad_minibatch", cos >= 0.99, f"cosine {cos:.5f} at K={k}"))
    return results


def _check_gibbs(model, table, lz2, rng) -> list:
    pstar = np.exp(table - lz2)
    count = 20000
    config = GibbsConfig(num_sweeps=5, proposals_per_step=10)
    chains = gibbs_sample_chains(model, count, config, rng)
    codes = chains[0].astype(np.int64) @ (1 << np.arange(model.visible_dim - 1, -1, -1))
    emp = np.bincount(codes, minlength=pstar.shape[0]) / count
    tv = 0.5 * float(np.abs(emp - pstar).sum())
    return [("gibbs_stationarity", tv <= 0.05, f"TV={tv:.4f} over {count} chains")]


def _cmd_oracle(args) -> int:
    sizes = _parse_sizes(args.dims)
    if args.k < 1:
        raise ValueError("--k must be positive")
    rng = np.random.default_rng(args.seed)
    model = random_model(sizes, rng)
    checks = []
    if args.checks != "grad":
        table = exact_log_ptilde_by_x(model)
        lz2 = float(_logsumexp(table))
    if args.checks in ("all", "bound"):
        checks += _check_bound(model, table, lz2)
    if args.checks in ("all", "z"):
        checks += _check_z(model, lz2, args.k, rng)
    if args.checks in ("all", "grad"):
        checks += _check_grad(model, args.k, rng)
    if args.checks in ("all", "gibbs"):
        checks += _check_gibbs(model, table, lz2, rng)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bihm",
        description="Bidirectional Helmholtz machines: train, evaluate, sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a binary dataset")
    p.add_argument("--data", required=True, help="training set (.amat/.csv/.bbm)")
    p.add_argument("--valid", help="validation set")
    p.add_argument("--layers", required=True, help="latent layer sizes, e.g. 300,200,100")
    p.add_argument("--k", type=int, default=10, help="importance samples per datapoint")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--l1", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="model.bihm", help="checkpoint output path")
    p.add_argument("--metrics", help="append per-epoch metrics CSV here")
    p.add_argument("--finetune-k", type=int, default=0, help="phase-2 sample count")
    p.add_argument("--finetune-lr", type=float, default=None, help="phase-2 learning rate")
    p.add_argument("--finetune-epochs", type=int, default=0, help="phase-2 epochs (0 = off)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="estimate data log-likelihood under a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--estimator", choices=("ptilde", "p", "pstar"), default="pstar")
    p.add_argument("--z-outer", type=int, default=100000)
    p.add_argument("--z-inner", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("zest", help="estimate the squared normalizer Z^2")
    p.add_argument("--model", required=True)
    p.add_argument("--k-outer", type=int, default=100000)
    p.add_argument("--k-inner", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_zest)

    p = sub.add_parser("sample", help="draw model samples and write PGM images")
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--gibbs", type=int, default=0, help="sweeps (0 = raw model samples)")
    p.add_argument("--prop-k", type=int, default=25, help="proposals per Gibbs step")
    p.add_argument("--expected", dest="expected", action="store_true",
                   help="write expected pixel values (default)")
    p.add_argument("--binary", dest="expected", action="store_false",
                   help="write hard binary samples")
    p.add_argument("--width", type=int, help="image width (with --height; default square)")
    p.add_argument("--height", type=int, help="image height (with --width)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sample, expected=True)

    p = sub.add_parser("inpaint", help="complete masked pixels of a PGM image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True, help="corrupted input image (PGM)")
    p.add_argument("--mask", required=True, help="PGM mask; bright = observed")
    p.add_argument("--gibbs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_inpaint)

    p = sub.add_parser("oracle", help="exhaustive-enumeration self-checks on a tiny model")
    p.add_argument("--dims", default="4,3,2", help="all layer sizes, visible first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", choices=("all", "z", "bound", "grad", "gibbs"), default="all")
    p.add_argument("--k", type=int, default=20000, help="samples for estimator cross-checks")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        FormatError,
        ShapeError,
        EnumerationLimitError,
        TrainingDiverged,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
