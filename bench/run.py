#!/usr/bin/env python3
"""rgbdfuse benchmark: one seeded workload per process, closed loop, medians.

    python3 bench/run.py --workload desk_train --seed 1 --seconds 40 --trace 0

Run from the repository root (the package is imported from ``src/``). The
inputs for the seed are generated first and are not timed. The harness then
sets up and calls the workload in a closed loop, one call after another, until
``--seconds`` have passed, and checks the outputs of every call. The first
call of a run warms caches and is left out of ``samples_per_s``.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` the
first half of the time runs untraced and the second half traced: the per-layer
metrics come from the traced calls, and the tracing overhead is the traced
minus the untraced median call time.

Every metric is printed as ``metric <name> <value> <unit>``, with the machine
(nproc, Python, numpy, BLAS name, version and thread count) and the status of
each check. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--toy`` runs tiny inputs for the
harness self-test; its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

# peak_rss_mb is read after this many calls (or the last, if fewer ran), so it
# does not depend on how many calls fit into the run.
RSS_CALLS = 4

# The per-layer metrics of a traced run (BENCHMARK.json "per_layer").
# Times and counts are per timed call of the workload unless noted.
PER_LAYER = {
    "tensor.conv2d.ms": "ms",
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.gflop": "GFLOP",
    "tensor.conv2d.cols_mb": "MB",  # im2col bytes
    "tensor.maxpool2x2.ms": "ms",
    "tensor.backward.ms": "ms",
    "tensor.graph_nodes": "nodes/step",
    "tensor.matmul.calls": "calls/step",
    "tensor.matmul.ms": "ms",
    "layers.lstm.ms": "ms",
    "attention.feature_map.ms": "ms",
    "attention.spatial.ms": "ms",
    "layers.backbone.ms": "ms",
    "layers.dense.ms": "ms",
    "layers.batchnorm.ms": "ms",
    "model.forward.ms": "ms",
    "model.extract_embedding.ms": "ms",
    "trainer.adam.ms": "ms",
    "trainer.evaluate.ms": "ms",
    "trainer.evaluate.graph_nodes": "nodes/batch",
    "trainer.attention_weight_means.ms": "ms",
    "trainer.train.self_ms": "ms",
    "model.save_checkpoint.ms": "ms",
    "model.save_checkpoint.calls": "count",
    "data.make_batches.ms": "ms",
    "data.decode_reuse": "ratio",
    "data.load_manifest.ms": "ms",
    "model.build.ms": "ms",
    "model.load_checkpoint.ms": "ms",
    "netpbm.read.ms": "ms",
    "netpbm.write.ms": "ms",
    "preprocess.depth_clip.ms": "ms",
    "preprocess.crop_resize.ms": "ms",
    "preprocess.augment.ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.calls": "count",  # traced calls the per-call figures average over
}

# Counts computed from observed shapes or the recorded graph, not measured.
COMPUTED = {"tensor.conv2d.gflop", "tensor.conv2d.cols_mb", "tensor.graph_nodes", "trainer.evaluate.graph_nodes"}


def limit_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; returns that count."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc)) if current.isdigit() and int(current) > 0 else str(nproc)
    return nproc


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    import numpy as np

    here = Path(np.__file__).parent
    for lib in sorted(glob.glob(str(here.parent / "numpy.libs" / "*openblas*")) + glob.glob(str(here / ".libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def machine_info(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def run_calls(wl, seconds: float, tracer=None) -> dict:
    """Set up and call the workload until ``seconds`` pass (at least one call).

    A call is not started when the median iteration so far would overrun.
    """
    out = {"setup_s": [], "op_s": [], "samples": [], "rss_mb": [], "attempted": 0, "failed": 0, "failures": []}
    iterations = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out["attempted"] += 1
        try:
            if tracer is not None:
                tracer.enabled = True
            setup_started = time.perf_counter()
            with tracer.call_span("bench.setup") if tracer else contextlib.nullcontext():
                wl.setup()
            out["setup_s"].append(time.perf_counter() - setup_started)
            with tracer.call_span("bench.call") if tracer else contextlib.nullcontext():
                samples, op_s = wl.call()
        except Exception as exc:  # a crashing call is a failed operation
            out["failed"] += 1
            out["failures"].append(f"call raised {type(exc).__name__}: {exc}")
            break
        finally:
            if tracer is not None:
                tracer.enabled = False
        out["samples"].append(samples)
        out["op_s"].append(op_s)
        out["rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        failures = wl.check()
        if failures:
            out["failed"] += 1
            out["failures"] += failures
        iterations.append(time.perf_counter() - t0)
        if time.perf_counter() - started + statistics.median(iterations) > seconds:
            break
    return out


def rate(run: dict) -> float:
    """Median samples/s over the calls; the first call warms caches and is left out."""
    pairs = list(zip(run["samples"], run["op_s"]))
    return statistics.median(n / s for n, s in pairs[1:] or pairs)


def layer_metrics(tracer, calls: int) -> dict:
    seconds, counts = tracer.totals()
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "ms" and not name.startswith("trace."):
            out[name] = seconds.get(name.rsplit(".", 1)[0], 0.0) * 1e3 / calls
    out["trainer.train.self_ms"] = tracer.self_seconds("trainer.train") * 1e3 / calls
    out["tensor.conv2d.calls"] = counts["tensor.conv2d"] / calls
    out["model.save_checkpoint.calls"] = counts["model.save_checkpoint"] / calls
    out["tensor.conv2d.gflop"] = tracer.conv_flop / 1e9 / calls
    out["tensor.conv2d.cols_mb"] = tracer.conv_cols_bytes / 1e6 / calls
    reads = tracer.reads
    out["data.decode_reuse"] = (reads - tracer.first_reads) / reads if reads else 0.0
    return out


def graph_probe(wl, tracer) -> dict:
    """Graph nodes and matmul calls of one train-mode forward + cross_entropy,
    and nodes an eval-mode forward records outside ``no_grad`` (as evaluate does)."""
    from rgbdfuse import data as D
    from rgbdfuse import tensor as T
    from tracer import graph_nodes

    model, records = wl.probe_model()
    if model is None:
        return {"tensor.graph_nodes": 0, "tensor.matmul.calls": 0, "trainer.evaluate.graph_nodes": 0}
    batch = next(D.make_batches(records, model.cfg.batch_size, seed=0))
    first = len(tracer.spans)
    tracer.enabled = True
    logits = model.forward(batch.rgb, batch.depth, "train")
    tracer.enabled = False
    matmuls = sum(1 for span in tracer.spans[first:] if span[0] == "tensor.matmul")
    del tracer.spans[first:]
    loss = T.cross_entropy(logits, batch.labels)
    return {
        "tensor.graph_nodes": graph_nodes(loss),
        "tensor.matmul.calls": matmuls,
        "trainer.evaluate.graph_nodes": graph_nodes(model.forward(batch.rgb, batch.depth, "eval")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)

    nproc = limit_threads()
    if not (ROOT / "src" / "rgbdfuse" / "__init__.py").is_file():
        print(f"error: no rgbdfuse sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    machine = machine_info(nproc)
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.seed, work, args.toy)
        if args.trace:
            untraced = run_calls(wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            traced = run_calls(wl, args.seconds / 2, tracer)
            runs = [untraced, traced]
        else:
            runs = [run_calls(wl, args.seconds)]
        if not all(r["op_s"] for r in runs):
            for failure in (f for r in runs for f in r["failures"]):
                print(f"error: {failure}", file=sys.stderr)
            return 1
        if args.trace:
            metrics = layer_metrics(tracer, len(traced["op_s"]))
            metrics.update(graph_probe(wl, tracer))
            tracer.uninstall()
            base = statistics.median(untraced["op_s"][1:] or untraced["op_s"])  # first call warms up
            overhead = statistics.median(traced["op_s"]) - base
            metrics["trace.overhead_ms"] = overhead * 1e3
            metrics["trace.overhead_pct"] = 100.0 * overhead / base
            metrics["trace.calls"] = len(traced["op_s"])
            units = PER_LAYER
            trace_path = BENCH / "_out" / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.parent.mkdir(exist_ok=True)
            tracer.dump(trace_path, machine)
            print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = {
                "samples_per_s": rate(runs[0]),
                "setup_s": statistics.median(runs[0]["setup_s"]),
                "peak_rss_mb": runs[0]["rss_mb"][:RSS_CALLS][-1],
            }
            units = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"calls={sum(len(r['op_s']) for r in runs)}")
    for r in runs:
        print("per-call samples/s " + " ".join(f"{n / s:.4g}" for n, s in zip(r["samples"], r["op_s"]))
              + " | setup s " + " ".join(f"{s:.3g}" for s in r["setup_s"]))
    for failure in (f for r in runs for f in r["failures"]):
        print(f"check FAIL: {failure}")
    for line in wl.describe(rate(runs[-1])):
        print(f"info {line}")
    print(f"checks {'ok' if failed == 0 else 'FAILED'}")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}" + (" (computed)" if name in COMPUTED else ""))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
