"""The four benchmark workloads, each a closed loop driven by one process.

A workload writes its seeded inputs (``prepare``), loads them through
``bihm.io`` (``load``), makes one warm-up call (``warmup``) and then repeats
one operation: ``run`` does the library work and returns its raw outputs and
timestamps, ``check`` verifies those outputs and turns them into an
``OpResult``.  Only ``load`` and ``run`` are traced.  Every operation uses the
same seed, so it does the same work and must give the same outputs each time.

Library calls go through module attributes (``bihm.training.train``, not a
name imported once) so that the traced run, which rebinds those attributes,
sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
from time import perf_counter as _now

import numpy as np

import bihm.cli
import bihm.estimators
import bihm.io
import bihm.sampling
import bihm.training

import inputs


@dataclasses.dataclass
class OpResult:
    unit_seconds: list  # the samples behind op_s
    items: float  # work items behind work_per_s
    item_seconds: float  # wall time those items took
    named: dict  # per-workload named quantities: name -> (value, unit)
    fingerprint: str  # digest of the operation's outputs
    failures: list  # output checks that failed, as messages


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _binary(a) -> bool:
    a = np.asarray(a)
    return bool(np.all((a == 0.0) | (a == 1.0)))


class TrainMnist:
    name = "train-mnist"
    why = (
        "784-200-100-50 training at K=10: gradient einsums and the Adam step "
        "dominate, and parameters are rewritten on every update"
    )
    sizes = (784, 200, 100, 50)
    train_rows = 600
    valid_rows = 200
    epochs = 2
    k_train = 10
    batch_size = 100
    z_outer = 1000
    work = "training rows consumed per second of train() wall time"

    def prepare(self, directory, seed):
        splits = {"train": self.train_rows, "valid": self.valid_rows}
        return inputs.write_inputs(directory, seed, self.sizes[0], splits)

    def load(self, paths, seed):
        directory = os.path.dirname(paths["train"])
        return dict(
            seed=seed,
            train=bihm.io.load_dataset(paths["train"]).data,
            valid=bihm.io.load_dataset(paths["valid"]).data,
            csv=os.path.join(directory, "metrics.csv"),
            out=os.path.join(directory, "trained.bihm"),
        )

    def warmup(self, s):
        model = bihm.training.init_model(self.sizes, s["seed"])
        rng = np.random.default_rng(s["seed"])
        bihm.training.minibatch_gradient(model, s["train"][: self.batch_size], self.k_train, rng)

    def run(self, s):
        if os.path.exists(s["csv"]):
            os.remove(s["csv"])
        config = bihm.training.TrainConfig(
            k_train=self.k_train, batch_size=self.batch_size, epochs=self.epochs, seed=s["seed"]
        )
        model = bihm.training.init_model(self.sizes, s["seed"])
        started = _now()
        model, history = bihm.training.train(
            model,
            s["train"],
            config,
            valid=s["valid"],
            callbacks=[lambda metrics, _model: bihm.io.append_metrics(s["csv"], metrics)],
            z_outer=self.z_outer,
        )
        bihm.io.save_checkpoint(model, {"seed": s["seed"]}, s["out"])
        return dict(model=model, history=history, seconds=_now() - started)

    def check(self, s, raw):
        history = raw["history"]
        failures = []
        numbers = [v for row in history for k, v in row.items() if k != "seconds"]
        if not all(math.isfinite(v) for v in numbers):
            failures.append(f"non-finite training metrics: {history}")
        if history[-1]["train_logptilde"] <= history[0]["train_logptilde"]:
            failures.append("train log ptilde did not improve over the run")
        with open(s["csv"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != bihm.io.METRICS_HEADER or len(lines) != 1 + self.epochs:
            failures.append(f"metrics CSV has {len(lines)} lines, expected {1 + self.epochs}")
        loaded = bihm.io.load_checkpoint(s["out"])
        again = s["out"] + ".again"
        bihm.io.save_checkpoint(loaded.model, loaded.metadata, again)
        if _file_digest(again) != _file_digest(s["out"]):
            failures.append("checkpoint did not round-trip to identical bytes")
        pairs = zip(raw["model"].param_items(), loaded.model.param_items())
        if any(not np.array_equal(a, b) for (_, a), (_, b) in pairs):
            failures.append("reloaded parameters differ from the trained ones")

        rows = self.train_rows * self.epochs
        epoch_seconds = [row["seconds"] for row in history]
        named = {
            "train_rows_per_s": (rows / raw["seconds"], "rows/s"),
            "epoch_s": (float(np.median(epoch_seconds)), "s"),
            "train_logptilde": (history[-1]["train_logptilde"], "nats"),
            "ess_pct": (history[-1]["ess_pct"], "%"),
        }
        kept = [[row[k] for k in sorted(row) if k != "seconds"] for row in history]
        return OpResult(
            unit_seconds=epoch_seconds,
            items=rows,
            item_seconds=raw["seconds"],
            named=named,
            fingerprint=_digest(np.array(kept)) + _file_digest(s["out"]),
            failures=failures,
        )


class EvalUci:
    name = "eval-uci"
    why = (
        "the eval --estimator pstar path on a 123-100-50-25 checkpoint: "
        "K=1000 row scoring and a 10^5-sample normalizer, read-only"
    )
    width = 123
    latent = (100, 50, 25)
    rows = 200
    k = 1000
    z_outer = 100_000
    work = "held-out rows scored at K=1000 per second of est_log_ptilde_rows"

    def prepare(self, directory, seed):
        return inputs.write_inputs(directory, seed, self.width, {"test": self.rows}, self.latent)

    def load(self, paths, seed):
        return dict(
            seed=seed,
            model=bihm.io.load_checkpoint(paths["model"]).model,
            data=bihm.io.load_dataset(paths["test"]).data,
        )

    def warmup(self, s):
        rng = np.random.default_rng(s["seed"])
        bihm.estimators.est_log_ptilde_rows(s["model"], s["data"][:1], self.k, rng)

    def run(self, s):
        # Same calls, arguments and generator use as `bihm eval --estimator pstar`.
        rng = np.random.default_rng(s["seed"])
        config = bihm.estimators.ZEstimateConfig(self.z_outer, 1)
        started = _now()
        values, ses = bihm.estimators.est_log_ptilde_rows(s["model"], s["data"], self.k, rng)
        scored = _now()
        z = bihm.estimators.est_log_z2(s["model"], config, rng)
        return dict(values=values, ses=ses, z=z, started=started, scored=scored, done=_now())

    def check(self, s, raw):
        values, z = raw["values"], raw["z"]
        ses = np.sqrt(raw["ses"] ** 2 + z.std_error**2)
        mean = float((values - z.value).mean())
        failures = []
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(ses))):
            failures.append("non-finite row estimates")
        if not (math.isfinite(z.value) and math.isfinite(z.std_error)):
            failures.append(f"non-finite normalizer estimate {z}")
        elif z.value > z.std_error:
            failures.append(f"log_z2={z.value} exceeds 0 by more than its SE {z.std_error}")
        if not mean < 0.0:
            failures.append(f"mean log p* {mean} is not negative")

        rows_s = raw["scored"] - raw["started"]
        named = {
            "eval_rows_per_s": (self.rows / rows_s, "rows/s"),
            "zest_outer_per_s": (self.z_outer / (raw["done"] - raw["scored"]), "samples/s"),
            "eval_logpstar": (mean, "nats"),
            "log_z2": (z.value, "nats"),
        }
        return OpResult(
            unit_seconds=[raw["done"] - raw["started"]],
            items=self.rows,
            item_seconds=rows_s,
            named=named,
            fingerprint=_digest(values, raw["ses"], np.array([z.value, z.std_error])),
            failures=failures,
        )


class GibbsMnist:
    name = "gibbs-mnist"
    why = (
        "few wide Gibbs and inpainting chains on a 784-200-100-50 checkpoint: "
        "many small K=25 candidate batches through the estimator"
    )
    width = 784
    latent = (200, 100, 50)
    heldout = 16
    chains = 4
    work = "Gibbs chains x sweeps per second of gibbs_sample_chains"

    def prepare(self, directory, seed):
        return inputs.write_inputs(directory, seed, self.width, {"heldout": self.heldout}, self.latent)

    def load(self, paths, seed):
        mask = np.zeros(self.width)
        mask[: self.width // 2] = 1.0  # the top half of the image is observed
        return dict(
            seed=seed,
            model=bihm.io.load_checkpoint(paths["model"]).model,
            x=bihm.io.load_dataset(paths["heldout"]).data[0],
            mask=mask,
        )

    def warmup(self, s):
        config = bihm.sampling.GibbsConfig(num_sweeps=1)
        bihm.sampling.gibbs_sample_chains(s["model"], 1, config, np.random.default_rng(s["seed"]))

    def run(self, s):
        config = bihm.sampling.GibbsConfig()
        rng = np.random.default_rng(s["seed"])
        started = _now()
        chains = bihm.sampling.gibbs_sample_chains(s["model"], self.chains, config, rng)
        sampled = _now()
        filled = bihm.sampling.inpaint_chains(s["model"], s["x"], s["mask"], self.chains, config, rng)
        return dict(
            chains=chains, filled=filled, sweeps=self.chains * config.num_sweeps,
            started=started, sampled=sampled, done=_now(),
        )

    def check(self, s, raw):
        chains, filled = raw["chains"], raw["filled"]
        observed = s["mask"] == 1.0
        failures = []
        shapes = [a.shape for a in chains]
        expected = [(self.chains, d) for d in s["model"].layer_sizes]
        if shapes != expected:
            failures.append(f"Gibbs chain shapes {shapes}, expected {expected}")
        if not all(_binary(a) for a in chains):
            failures.append("Gibbs states are not binary")
        if filled.shape != (self.chains, self.width) or not _binary(filled):
            failures.append("inpainted rows are not binary rows of the visible width")
        elif not np.all(filled[:, observed] == s["x"][observed]):
            failures.append("inpainting changed observed pixels")

        gibbs_s = raw["sampled"] - raw["started"]
        named = {
            "gibbs_chain_sweeps_per_s": (raw["sweeps"] / gibbs_s, "1/s"),
            "inpaint_chain_sweeps_per_s": (raw["sweeps"] / (raw["done"] - raw["sampled"]), "1/s"),
        }
        return OpResult(
            unit_seconds=[raw["done"] - raw["started"]],
            items=raw["sweeps"],
            item_seconds=gibbs_s,
            named=named,
            fingerprint=_digest(*chains, filled),
            failures=failures,
        )


class OracleTiny:
    name = "oracle-tiny"
    why = (
        "the in-process oracle self-check on an 8-5-4 model: exact enumeration "
        "and 20000 tiny Gibbs chains, where per-call overhead dominates"
    )
    # As a user types it: the model comes from the CLI's own default seed.
    argv = ("oracle", "--dims", "8,5,4", "--checks", "all")
    checks = (
        "z2_nonpositive", "ptilde_below_p", "ptilde_below_pstar", "identity",
        "z_estimate", "grad_fd", "grad_minibatch", "gibbs_stationarity",
    )
    work = "oracle checks completed per second"

    def prepare(self, directory, seed):
        os.makedirs(directory, exist_ok=True)
        return {}

    def load(self, paths, seed):
        return dict(seed=seed)

    def warmup(self, s):
        with contextlib.redirect_stdout(io.StringIO()):
            bihm.cli.main(["oracle", "--dims", "3,2,2", "--checks", "bound"])

    def run(self, s):
        out = io.StringIO()
        started = _now()
        with contextlib.redirect_stdout(out):
            code = bihm.cli.main(list(self.argv))
        return dict(code=code, text=out.getvalue(), seconds=_now() - started)

    def check(self, s, raw):
        lines = raw["text"].splitlines()
        failures = [line for line in lines if not line.startswith("PASS ")]
        if raw["code"] != 0:
            failures.append(f"oracle exited with {raw['code']}")
        names = tuple(line.split()[1].rstrip(":") for line in lines if len(line.split()) > 1)
        if names != self.checks:
            failures.append(f"oracle ran checks {names}, expected {self.checks}")
        tv = [float(line.split("TV=")[1].split()[0]) for line in lines if "TV=" in line]
        named = {
            "oracle_s": (raw["seconds"], "s"),
            "gibbs_tv": (tv[0] if tv else math.nan, "1"),
        }
        return OpResult(
            unit_seconds=[raw["seconds"]],
            items=len(lines),
            item_seconds=raw["seconds"],
            named=named,
            fingerprint=hashlib.sha256(raw["text"].encode()).hexdigest(),
            failures=failures,
        )


WORKLOADS = {w.name: w for w in (TrainMnist(), EvalUci(), GibbsMnist(), OracleTiny())}
