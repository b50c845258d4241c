"""One workload in a fresh interpreter, so that its peak RSS is its own.

    python3 benchmarks/worker.py prepare WORKLOAD SEED WORKDIR
    python3 benchmarks/worker.py measure WORKLOAD SEED WORKDIR SECONDS
    python3 benchmarks/worker.py trace   WORKLOAD SEED WORKDIR SECONDS

``prepare`` writes the input files that need the program itself (the
serialized Grover diagrams of diagram-mix).  ``measure`` runs one closed
loop of requests from a single client, untraced, and ``trace`` runs a fixed
list of requests untraced, traced and under tracemalloc.  Both write their
figures to WORKDIR/result.json.  run.py starts this script with grover_lab
on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from grover_lab import cli, grover_diagram, serialize, tensor_eval

import checks
import workloads
from tracing import Tracer

# A worker starts no new cycle after this long, so that it ends well within
# the 180 s a run may take however slow the program is.
WALL_LIMIT_S = 110.0
# In trace mode the request list is the first seconds / 20 cycles.
TRACE_SECONDS_PER_CYCLE = 20


def program_call(req):
    """A zero-argument function making the request's single call into
    grover_lab; it returns (exit code, raw output)."""
    if "argv" in req:
        def call():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(req["argv"])
            return code, out.getvalue()
        return call
    e = req["expect"]

    def call():
        fbox = grover_diagram.indicator_box(grover_diagram.register_space(e["n"]), e["marked"])
        d = grover_diagram.build_grover_diagram(e["n"], fbox, e["k"])
        return 0, tensor_eval.evaluate(d).matrix
    return call


def verify(req, code, raw):
    if isinstance(raw, np.ndarray):
        raw = [[z.real, z.imag] for z in raw[:, 0]]
    return checks.check(req["expect"], code, raw)


class Loop:
    """The closed loop: one request at a time, each checked when done."""

    def __init__(self):
        self.latencies = []
        self.failures = []

    def run(self, reqs, runner=None):
        busy = 0.0
        for req in reqs:
            rid = len(self.latencies)
            call = program_call(req)
            gc.collect()  # each request starts from a clean heap, as a fresh CLI process would
            start = time.perf_counter()
            try:
                code, raw = runner(rid, call) if runner else call()
            except Exception:  # a crash is a failed request, not a failed run
                code, raw = None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
            elapsed = time.perf_counter() - start
            busy += elapsed
            self.latencies.append(elapsed)
            problem = f"crashed: {raw}" if code is None else verify(req, code, raw)
            if problem:
                self.failures.append(f"{' '.join(req.get('argv', [req.get('call', '')]))}: {problem}")
        return busy


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def cmd_prepare(workload, seed, work):
    if workload != "diagram-mix":
        return {}
    for spec in workloads.dense_file_specs(seed):
        space = grover_diagram.register_space(spec["n"])
        d = grover_diagram.build_grover_diagram(
            spec["n"], grover_diagram.indicator_box(space, spec["marked"]), spec["k"]
        )
        (work / spec["file"]).write_text(serialize.dumps(d), encoding="utf-8")
    return {}


def cmd_measure(workload, seed, work, seconds):
    wall0 = time.perf_counter()
    warm = Loop()
    warm.run(workloads.warmup(workload, seed, work))
    loop = Loop()
    busy, cycles = 0.0, 0
    # Whole cycles, as many as bring the busy time nearest to `seconds`.
    while (cycles < workloads.MIN_CYCLES[workload] or busy * (1 + 0.5 / cycles) < seconds) and (
        time.perf_counter() - wall0 < WALL_LIMIT_S
    ):
        busy += loop.run(workloads.cycle(workload, seed, cycles, work))
        cycles += 1
    return {
        "latencies": loop.latencies,
        "attempted": len(warm.latencies) + len(loop.latencies),
        "failures": warm.failures + loop.failures,
        "busy_s": busy,
        "cycles": cycles,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def cmd_trace(workload, seed, work, seconds, spans_path):
    n_cycles = max(1, seconds // TRACE_SECONDS_PER_CYCLE)
    cycles = [workloads.cycle(workload, seed, c, work) for c in range(n_cycles)]
    reqs = [r for cyc in cycles for r in cyc]
    warm = Loop()
    warm.run(workloads.warmup(workload, seed, work))

    plain = Loop()
    untraced_s = plain.run(reqs)

    traced = Loop()
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = traced.run(reqs, tracer.request)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)

    # The memory pass repeats the first cycle; its counts must equal the
    # traced pass's counts for the same requests.
    mem = Loop()
    mem_tracer = Tracer(memory=True)
    mem_tracer.install()
    try:
        mem.run(cycles[0], mem_tracer.request)
    finally:
        mem_tracer.uninstall()
    first = set(range(len(cycles[0])))
    repeat_ok = tracer.totals(first) == mem_tracer.totals(first)

    self_s, incl_s = tracer.times()
    return {
        "attempted": sum(len(loop.latencies) for loop in (warm, plain, traced, mem)),
        "failures": warm.failures + plain.failures + traced.failures + mem.failures,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "counts": tracer.totals(),
        "counts_repeat": repeat_ok,
        "self_s": self_s,
        "inclusive_s": incl_s,
        "errors": tracer.layer_errors(),
        "peak_alloc_mb": mem_tracer.peak_alloc_mb,
        "requests": len(reqs),
        "spans": len(tracer.spans),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["prepare", "measure", "trace"])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("work", type=Path)
    parser.add_argument("seconds", type=int, nargs="?", default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        result = cmd_prepare(args.workload, args.seed, args.work)
    elif args.mode == "measure":
        result = cmd_measure(args.workload, args.seed, args.work, args.seconds)
    else:
        result = cmd_trace(args.workload, args.seed, args.work, args.seconds, args.spans)
    result["env"] = environment()
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
