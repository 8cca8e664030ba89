"""Repeated sessions of one workload and the metrics drawn from them.

Sessions of one workload and seed repeat for ``--seconds``, at least two of
them, and every repeat must reproduce the first session's trained weights
and accuracies bit for bit.

``--trace 0`` reports the end-to-end metrics, measured untraced. The first
session is a warm-up: it pays one-off allocation costs that the later,
identical sessions do not. Each rate is the work of a phase over its mean
time across the other sessions.

``--trace 1`` runs untraced sessions for half the time, then traced ones,
and reports per-layer calls and self time per traced session, plus the
tracing overhead. Traced results must equal untraced ones. Spans are
written to ``<out_dir>/traces/<workload>-seed<seed>.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

from session import Checks, run_session
from spans import OVERHEAD, PER_LAYER, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 9  # set-up samples per run, the sessions' own included

# name -> unit of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "certify_samples_per_s": "1/s",
    "pgd_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_aa": "ratio",
    "verified_acc": "ratio",
    "pgd_acc": "ratio",
}


def blas_info(requested: int) -> dict:
    """BLAS build, and the thread count the loaded OpenBLAS reports."""
    blas = (np.show_config(mode="dicts")
            .get("Build Dependencies", {}).get("blas", {}))
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "requested_threads": requested, "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def run_metadata(workload, args, blas_threads: int) -> dict:
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_info(blas_threads),
        "nproc": len(os.sched_getaffinity(0)),
        "settings": workload.settings(),
    }


def end_to_end_metrics(results, setup_samples) -> dict:
    first, warm = results[0], results[1:]

    def mean_s(phase):
        return statistics.fmean(r.phase_s[phase] for r in warm)

    return {
        "setup_s": statistics.median(setup_samples),
        "train_steps_per_s": first.train_steps / mean_s("train"),
        "certify_samples_per_s": first.certify_samples / mean_s("certify"),
        "pgd_samples_per_s": first.pgd_samples / mean_s("pgd"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_aa": first.final_aa,
        "verified_acc": first.verified_acc,
        "pgd_acc": first.pgd_acc,
    }


def run_sessions(seconds, minimum, workload, seed, work_dir, tracer, checks,
                 label):
    """Sessions until ``seconds`` would be exceeded, at least ``minimum``.

    No session starts once the previous one, checks included, would no
    longer fit in the time left. The first session also runs the
    certificate and soundness checks. Returns ``None`` if training diverged.
    """
    results = []
    start = perf_counter()
    last = 0.0
    while len(results) < minimum or perf_counter() - start + last <= seconds:
        tracer.session = f"{workload.name}-seed{seed}-{label}{len(results)}"
        began = perf_counter()
        result = run_session(workload, seed, work_dir, tracer, checks,
                             verify=not results)
        last = perf_counter() - began
        if result is None:
            return None
        results.append(result)
        print(f"session {tracer.session}: "
              + " ".join(f"{phase}_s={seconds:.4f}"
                         for phase, seconds in result.phase_s.items())
              + f" sha256={result.weights_sha256}", flush=True)
    return results


def check_repeats(results, checks: Checks) -> None:
    """Each repeat of one seed must reproduce the first session exactly."""
    reference = results[0].outcome()
    for i, result in enumerate(results[1:], start=1):
        checks.record(1, int(result.outcome() != reference),
                      f"session {i} differs from session 0: "
                      f"{result.outcome()} vs {reference}")


def untraced_run(workload, args, work_dir, out_dir, checks):
    results = run_sessions(args.seconds, 2, workload, args.seed, work_dir,
                           Tracer(), checks, "untraced")
    if results is None:
        return None, None
    check_repeats(results, checks)
    setup_samples = [r.setup_s for r in results]
    while len(setup_samples) < SETUP_REPEATS:
        start = perf_counter()
        workload.setup(args.seed)
        setup_samples.append(perf_counter() - start)
    return end_to_end_metrics(results, setup_samples), results[0]


def traced_run(workload, args, work_dir, out_dir, checks):
    tracer = Tracer()
    plain = run_sessions(args.seconds / 2, 2, workload, args.seed, work_dir,
                         tracer, checks, "untraced")
    if plain is None:
        return None, None
    tracer.install()
    tracer.active = True
    try:
        traced = run_sessions(args.seconds / 2, 1, workload, args.seed,
                              work_dir, tracer, checks, "traced")
    finally:
        tracer.active = False
        tracer.uninstall()
    if traced is None:
        return None, None
    check_repeats(plain + traced, checks)
    metrics = tracer.layer_metrics(len(traced))
    metrics[OVERHEAD] = (statistics.fmean(r.session_s for r in traced)
                         / statistics.fmean(r.session_s for r in plain[1:]))
    traces = out_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.dump(traces / f"{workload.name}-seed{args.seed}.jsonl.gz")
    return metrics, plain[0]


def main(args, out_dir, blas_threads: int) -> int:
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]
    print("meta " + json.dumps(run_metadata(workload, args, blas_threads),
                               sort_keys=True), flush=True)

    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    run = traced_run if args.trace else untraced_run
    try:
        metrics, first = run(workload, args, work_dir, out_dir, checks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if first is not None:
        print(f"weights_sha256 {workload.name} seed {args.seed} "
              f"{first.weights_sha256}")
    for note in checks.notes:
        print(f"FAILED {note}")
    print(f"failed_share = {checks.failed / max(checks.attempted, 1)} ratio "
          f"({checks.failed} failed of {checks.attempted} checks)")
    units = ({name: unit for name, (unit, _) in PER_LAYER.items()}
             if args.trace else END_TO_END)
    report = {}
    if metrics is not None:
        for name, unit in units.items():
            report[name] = {"value": metrics[name], "unit": unit}
            print(f"{name} = {metrics[name]} {unit}")
    correct = metrics is not None and checks.failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(checks.attempted, 1),
                      "failed": max(checks.failed, int(not correct)),
                      "metrics": report}))
    return 0 if correct else 1
