"""Outside-in tracing: spans around calls into the public functions of ``bihm``.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` rebinds
each traced function at every place that calls it (the module attribute the
caller looks up, e.g. ``bihm.estimators.log_joint_p`` and
``bihm.training.log_joint_p``, or the class attribute
``BeliefLayer.activation``) to a wrapper that records a span: name, start,
end, parent span and run id.  Spans stay in memory until ``write``.
``uninstall`` puts the original functions back.

Counts are taken in the wrappers from argument shapes, so they repeat exactly
for a fixed seed.  The one expensive count, distinct Gibbs candidate rows, is
computed after the traced run from references kept during it, so it adds no
time to any span.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

import bihm
import bihm.cli
import bihm.estimators
import bihm.io
import bihm.model
import bihm.oracle
import bihm.sampling
import bihm.training

MODULES = (bihm, bihm.model, bihm.estimators, bihm.training, bihm.sampling, bihm.oracle, bihm.io, bihm.cli)

# Spans whose metric is inclusive time; every other ``.s`` metric is self time.
INCLUSIVE = ("model.log_joint_p", "model.log_q_given_x", "model.sample_q_rows", "model.sample_p_batch")

# name -> unit, in report order.  Every traced run reports all of
# them; a layer that a workload does not exercise reports 0.
PER_LAYER = {
    "model.activation.calls": "count",
    "model.activation.macs": "count",
    "model.activation.bytes": "B",
    "model.activation.s": "s",
    "model.sigmoid.s": "s",
    "model.layer_log_prob.s": "s",
    "model.layer_sample.s": "s",
    "model.log_joint_p.s": "s",
    "model.log_q_given_x.s": "s",
    "model.sample_q_rows.s": "s",
    "model.sample_p_batch.s": "s",
    "estimators.est_log_ptilde_rows.s": "s",
    "estimators.est_log_ptilde_rows.rows": "count",
    "estimators.est_log_z2.s": "s",
    "estimators.est_log_z2.outer": "count",
    "training.minibatch_gradient.s": "s",
    "training.adam_update.s": "s",
    "training.adam_update.calls": "count",
    "training.train.s": "s",
    "training.ess_pct": "%",
    "sampling.gibbs_sample_chains.s": "s",
    "sampling.inpaint_chains.s": "s",
    "sampling.ptilde_share": "ratio",
    "sampling.candidates": "count",
    "sampling.distinct_candidate_ratio": "ratio",
    "oracle.exact_log_ptilde_by_x.calls": "count",
    "oracle.exact_log_pstar.calls": "count",
    "oracle.exact_log_ptilde_by_x.s": "s",
    "oracle.exact_grad_log_ptilde.s": "s",
    "io.load_dataset.s": "s",
    "io.load_checkpoint.s": "s",
    "io.save_checkpoint.s": "s",
    "io.append_metrics.s": "s",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "cli.main.s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _count_activation(tracer, args, kwargs, before, result):
    layer, inputs = args[0], args[1]
    rows = result.size // layer.out_dim
    tracer.counts["model.activation.calls"] += 1
    tracer.counts["model.activation.macs"] += rows * layer.in_dim * layer.out_dim
    floats = np.size(inputs) + layer.weights.size + layer.biases.size + result.size
    tracer.counts["model.activation.bytes"] += 8 * floats


def _count_ptilde_rows(tracer, args, kwargs, before, result):
    rows = np.asarray(args[1])
    tracer.counts["estimators.est_log_ptilde_rows.rows"] += rows.shape[0]
    if tracer.in_sampling():
        tracer.candidate_batches.append(rows)


def _count_z2(tracer, args, kwargs, before, result):
    tracer.counts["estimators.est_log_z2.outer"] += args[1].k_outer


def _calls(name):
    def count(tracer, args, kwargs, before, result):
        tracer.counts[name] += 1

    return count


def _count_read(tracer, args, kwargs, before, result):
    tracer.counts["io.bytes_read"] += _size(args[0])


def _count_saved(tracer, args, kwargs, before, result):
    # save_checkpoint takes the path last and overwrites the file.
    tracer.counts["io.bytes_written"] += _size(args[-1])


def _size_before(args, kwargs):
    return _size(args[0])


def _count_appended(tracer, args, kwargs, before, result):
    tracer.counts["io.bytes_written"] += _size(args[0]) - before


# (owner, attribute, span name, count, pre-call hook).  The owner is the
# defining module or class; install() rebinds the function wherever it is
# bound under that attribute name.  Spans without a metric of their own (the
# other oracle functions) keep their work out of their callers' self time.
TARGETS = (
    (bihm.model.BeliefLayer, "activation", "model.activation", _count_activation, None),
    (bihm.model, "sigmoid", "model.sigmoid", None, None),
    (bihm.model, "clamped_sigmoid", "model.sigmoid", None, None),
    (bihm.model, "layer_log_prob", "model.layer_log_prob", None, None),
    (bihm.model, "layer_sample", "model.layer_sample", None, None),
    (bihm.model, "log_joint_p", "model.log_joint_p", None, None),
    (bihm.model, "log_q_given_x", "model.log_q_given_x", None, None),
    (bihm.model, "sample_q_rows", "model.sample_q_rows", None, None),
    (bihm.model, "sample_p_batch", "model.sample_p_batch", None, None),
    (bihm.estimators, "est_log_ptilde_rows", "estimators.est_log_ptilde_rows", _count_ptilde_rows, None),
    (bihm.estimators, "est_log_z2", "estimators.est_log_z2", _count_z2, None),
    (bihm.training, "train", "training.train", None, None),
    (bihm.training, "minibatch_gradient", "training.minibatch_gradient", None, None),
    (bihm.training, "adam_update", "training.adam_update", _calls("training.adam_update.calls"), None),
    (bihm.sampling, "gibbs_sample_chains", "sampling.gibbs_sample_chains", None, None),
    (bihm.sampling, "inpaint_chains", "sampling.inpaint_chains", None, None),
    (bihm.oracle, "exact_log_ptilde", "oracle.exact_log_ptilde", None, None),
    (bihm.oracle, "exact_log_p", "oracle.exact_log_p", None, None),
    (bihm.oracle, "exact_log_z2", "oracle.exact_log_z2", None, None),
    (bihm.oracle, "exact_log_ptilde_by_x", "oracle.exact_log_ptilde_by_x", _calls("oracle.exact_log_ptilde_by_x.calls"), None),
    (bihm.oracle, "exact_log_pstar", "oracle.exact_log_pstar", _calls("oracle.exact_log_pstar.calls"), None),
    (bihm.oracle, "exact_grad_log_ptilde", "oracle.exact_grad_log_ptilde", None, None),
    (bihm.io, "load_dataset", "io.load_dataset", _count_read, None),
    (bihm.io, "load_checkpoint", "io.load_checkpoint", _count_read, None),
    (bihm.io, "save_checkpoint", "io.save_checkpoint", _count_saved, None),
    (bihm.io, "append_metrics", "io.append_metrics", _count_appended, _size_before),
    (bihm.cli, "main", "cli.main", None, None),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: int = 0):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.run_id = run_id
        self.counts = defaultdict(float)
        self.candidate_batches = []
        self._saved = []

    def in_sampling(self) -> bool:
        return any(self.names[i].startswith("sampling.") for i in self.stack)

    def _wrap(self, fn, name, count, pre):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre is not None else 0
            i = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.ends.append(0)
            tracer.stack.append(i)
            tracer.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = perf_counter_ns()
                tracer.stack.pop()
            if count is not None:
                count(tracer, args, kwargs, before, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count, pre in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count, pre)
            holders = [owner] + [m for m in MODULES if m is not owner]
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    self._saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, fh) -> None:
        """One JSON object per span: name, start and end in ns, parent index, run id."""
        for i, name in enumerate(self.names):
            fh.write(json.dumps({
                "i": i, "name": name, "start_ns": self.starts[i], "end_ns": self.ends[i],
                "parent": self.parents[i], "run": self.run_id,
            }) + "\n")

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of this tracer's spans, for one traced run of ``wall_s``."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0] * n
        sampling = [False] * n
        root_ns = 0
        for i in range(n):
            p = self.parents[i]
            sampling[i] = self.names[i].startswith("sampling.") or (p >= 0 and sampling[p])
            if p >= 0:
                covered[p] += dur[i]
            else:
                root_ns += dur[i]
        self_ns = defaultdict(int)
        incl_ns = defaultdict(int)
        sampling_ns = 0
        ptilde_in_sampling_ns = 0
        for i, name in enumerate(self.names):
            self_ns[name] += dur[i] - covered[i]
            incl_ns[name] += dur[i]
            if name.startswith("sampling."):
                sampling_ns += dur[i]
            elif name == "estimators.est_log_ptilde_rows" and sampling[i]:
                ptilde_in_sampling_ns += dur[i]

        out = {name: 0.0 for name in PER_LAYER}
        for key, value in self.counts.items():
            if key in out:
                out[key] = float(value)
        for name in set(self.names):
            key = name + ".s"
            if key in out:
                out[key] = (incl_ns[name] if name in INCLUSIVE else self_ns[name]) / 1e9
        if sampling_ns:
            out["sampling.ptilde_share"] = ptilde_in_sampling_ns / sampling_ns
        rows = sum(b.shape[0] for b in self.candidate_batches)
        if rows:
            distinct = sum(_distinct_rows(b) for b in self.candidate_batches)
            out["sampling.candidates"] = float(rows)
            out["sampling.distinct_candidate_ratio"] = distinct / rows
        out["trace.coverage_pct"] = 100.0 * root_ns / 1e9 / wall_s
        return out


def _distinct_rows(rows: np.ndarray) -> int:
    packed = np.packbits(rows.astype(np.uint8), axis=1)
    return np.unique(packed, axis=0).shape[0]
