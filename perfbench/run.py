"""Benchmark for the ``bihm`` library in ``src/``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: train-mnist, eval-uci,
gibbs-mnist, oracle-tiny (see perfbench/README.md).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every measured quantity
with its unit, the environment and the seed.  ``--trace 0`` reports the
end-to-end metrics with tracing off; ``--trace 1`` reports the per-layer
metrics of an outside-in traced run.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, perf_counter_ns

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3  # fresh processes timed per run; setup_s is their median

# name -> unit; every workload reports all of them with --trace 0.
END_TO_END = {"setup_s": "s", "op_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def _import_bihm():
    if not os.path.isfile(os.path.join(SRC, "bihm", "__init__.py")):
        sys.exit(f"perfbench: no bihm sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import bihm

    if os.path.dirname(os.path.dirname(os.path.abspath(bihm.__file__))) != SRC:
        sys.exit(f"perfbench: imported bihm from {bihm.__file__}, not from {SRC}")
    return bihm


def _setup_child(args) -> None:
    """Time a fresh process from launch to the end of its warm-up call."""
    _import_bihm()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    with open(os.path.join(args.inputs, "paths.json"), encoding="utf-8") as fh:
        paths = json.load(fh)
    wl.warmup(wl.load(paths, args.seed))
    print((perf_counter_ns() - args.launched_ns) / 1e9)


def _setup_seconds(args, inputs_dir) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [
            sys.executable, os.path.abspath(__file__), "--setup-child",
            "--workload", args.workload, "--seed", str(args.seed),
            "--inputs", inputs_dir, "--launched-ns", str(perf_counter_ns()),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up process failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _environment(bihm, args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "bihm": bihm.__version__,
    }


def _run_op(fn, failures):
    """Call ``fn`` for one OpResult; an exception counts as a failed operation."""
    try:
        result = fn()
    except Exception as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
        return None
    failures.extend(result.failures)
    return result


def _rounds(seconds):
    """Yield once, then again while a round as long as the last would end within ``seconds``."""
    started = last = perf_counter()
    yield
    while True:
        now = perf_counter()
        if now - started + (now - last) > seconds:
            return
        last = now
        yield


def _differing(results, failures) -> int:
    """Operations whose outputs differ from the first one's; every op uses the same seed."""
    count = sum(1 for r in results[1:] if r.fingerprint != results[0].fingerprint)
    if count:
        failures.append(f"{count} operations gave other outputs than the first on the same seed")
    return count


def _timed_run(wl, state, args):
    """End-to-end metrics with tracing off."""
    results, failures = [], []
    attempted = failed = 0
    for _ in _rounds(args.seconds):
        op_failures = []
        r = _run_op(lambda: wl.check(state, wl.run(state)), op_failures)
        attempted += 1
        failed += bool(op_failures)
        failures += op_failures
        if r is not None:
            results.append(r)
    if results:
        failed += _differing(results, failures)
    return results, attempted, min(failed, attempted), failures


def _load_and_run(wl, paths, seed, tracer):
    """One operation with its input loads; its wall time and tracing leave out the checks."""
    failures, timing = [], {}

    def op():
        started = perf_counter()
        with tracer if tracer is not None else contextlib.nullcontext():
            state = wl.load(paths, seed)
            raw = wl.run(state)
        timing["wall"] = perf_counter() - started
        return wl.check(state, raw)

    r = _run_op(op, failures)
    return r, timing.get("wall"), failures


def _traced_run(wl, paths, args, spans_path):
    """Per-layer metrics from pairs of an untraced and a traced operation on the same seed."""
    import tracing

    # One whole untraced operation first: the first one after start-up runs
    # slower (fresh memory), which would read as negative tracing overhead.
    per_op, tracers = [], []
    r, _, failures = _load_and_run(wl, paths, args.seed, None)
    results = [r] if r is not None else []
    attempted, failed = 1, int(bool(failures))
    for _ in _rounds(args.seconds):
        tracer = tracing.Tracer(run_id=len(per_op))
        # Alternate which of the two runs first, so warm-up effects cancel.
        order = (None, tracer) if len(per_op) % 2 == 0 else (tracer, None)
        pair = {t: _load_and_run(wl, paths, args.seed, t) for t in order}
        for r, _, op_failures in pair.values():
            attempted += 1
            failed += bool(op_failures)
            failures += op_failures
            if r is not None:
                results.append(r)
        (r0, wall0, _), (r1, wall1, _) = pair[None], pair[tracer]
        if r0 is None or r1 is None:
            continue
        layers = tracer.layer_metrics(wall1)
        layers["trace.overhead_pct"] = 100.0 * (wall1 - wall0) / wall0
        if "ess_pct" in r1.named:
            layers["training.ess_pct"] = r1.named["ess_pct"][0]
        per_op.append(layers)
        tracer.candidate_batches.clear()
        tracers.append(tracer)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            tracer.write(fh)
    if results:
        failed += _differing(results, failures)
    metrics = {
        name: {"value": statistics.median(m[name] for m in per_op), "unit": unit}
        for name, unit in tracing.PER_LAYER.items()
    } if per_op else {}
    return metrics, results, attempted, min(failed, attempted), failures


def _end_to_end(results, setup) -> dict:
    unit_seconds = [s for r in results for s in r.unit_seconds]
    values = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.median(unit_seconds),
        "work_per_s": sum(r.items for r in results) / sum(r.item_seconds for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def _named(results) -> dict:
    """Median over operations of each named per-workload quantity."""
    names = results[0].named
    return {
        k: (statistics.median(r.named[k][0] for r in results), unit)
        for k, (_, unit) in names.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    parser.add_argument("--launched-ns", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        _setup_child(args)
        return 0

    bihm = _import_bihm()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = _environment(bihm, args)

    # Inputs are written fresh for every run, outside any timing.
    inputs_dir = os.path.join(WORK, f"{wl.name}-seed{args.seed}")
    shutil.rmtree(inputs_dir, ignore_errors=True)
    paths = wl.prepare(inputs_dir, args.seed)
    with open(os.path.join(inputs_dir, "paths.json"), "w", encoding="utf-8") as fh:
        json.dump(paths, fh)

    print(f"# perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# why: {wl.why}")
    print(f"# work_per_s counts {wl.work}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        spans_path = os.path.join(inputs_dir, "spans.jsonl")
        metrics, results, attempted, failed, failures = _traced_run(wl, paths, args, spans_path)
        print(f"# spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        setup = _setup_seconds(args, inputs_dir)
        state = wl.load(paths, args.seed)
        wl.warmup(state)
        results, attempted, failed, failures = _timed_run(wl, state, args)
        metrics = _end_to_end(results, setup) if results else {}
        print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    if not metrics:
        sys.exit("perfbench: no operation completed: " + "; ".join(failures))

    for name, (value, unit) in _named(results).items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_pct {100.0 * failed / attempted:.6g} %  ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for msg in failures:
        print(f"# FAILED: {msg}")

    record = {"environment": env, "workload": wl.name, "named": _named(results), "metrics": metrics}
    with open(os.path.join(inputs_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
