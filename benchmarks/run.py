"""grover-lab benchmark: one workload, one seed, one JSON line of metrics.

    python3 benchmarks/run.py --workload sim-large --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; grover_lab is imported from
./src.  With --trace 0 the run reports the end-to-end metrics: the cold
start of the CLI (setup_s) and the latency, throughput, peak RSS and
success rate of a single closed-loop client sending the workload's
requests.  With --trace 1 it reports the per-layer metrics of a traced run
instead.  Every request's output is checked against an independent
reference; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the lines before it say what was measured.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from tracing import LAYERS, TARGETS  # noqa: E402

# Cold starts per group.  One group runs before the workload's set-up, one
# before and one after its measured loop, so that they sample the host at
# three times.
SETUP_REPEATS = 4
BLAS_THREADS = 1  # one client, one core's worth of work per request
WORKER_TIMEOUT_S = 160
# A span layer's self times must cover the requests' wall time to this share.
SELF_TIME_COVERAGE = 0.95


def child_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env


def cold_starts(env):
    """Wall times of SETUP_REPEATS runs of `python -m grover_lab.cli --version`."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "grover_lab.cli", "--version"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"grover_lab.cli --version failed: {proc.stderr.strip()}")
    return times


def worker(env, *args):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr.strip()}")
    return json.loads((Path(args[3]) / "result.json").read_text(encoding="utf-8"))


def tail_percentile(workload):
    """The highest whole percentile with at least ten samples beyond it at
    the run's minimum sample count.  It is fixed per workload, so that runs
    of different speed report the same percentile."""
    samples = workloads.MIN_CYCLES[workload] * workloads.cycle_size(workload)
    return math.floor(100 * (samples - 10) / samples)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, res, setup_times):
    lat = res["latencies"]
    failed, attempted = len(res["failures"]), res["attempted"]
    p = tail_percentile(workload)
    beyond = len(lat) - math.ceil(p / 100 * len(lat))
    metrics = {
        "latency_p50_s": metric(statistics.median(lat), "s"),
        "latency_tail_s": metric(percentile(lat, p), "s"),
        "throughput_rps": metric((len(lat) - failed) / res["busy_s"], "1/s"),
        "peak_rss_mb": metric(res["peak_rss_kb"] / 1024, "MB"),
        "success_rate": metric(1 - failed / attempted, "ratio"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    notes = [
        f"requests: {len(lat)} timed in {res['cycles']} cycles, {res['busy_s']:.2f} s busy;"
        f" {attempted} attempted with the warm-up, error_rate {failed / attempted:.4g}",
        f"latency_tail_s is p{p} ({beyond} samples beyond it);"
        f" setup_s is the median of {len(setup_times)} cold starts",
    ]
    return metrics, notes


def per_layer(res):
    counts, self_s, incl = res["counts"], res["self_s"], res["inclusive_s"]

    def count(key):
        return counts.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in TARGETS:
        metrics[f"{name}.calls"] = metric(count(f"{name}.calls"), "count")
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = metric(res["errors"][layer], "count")
    updates = count("simulator.amplitude_updates")
    bytes_in, bytes_out = count("serialize.bytes_in"), count("serialize.bytes_out")
    steps = count("rewrite.steps")
    metrics.update({
        "simulator.amplitude_updates": metric(updates, "count"),
        "simulator.ns_per_amplitude_update": metric(
            ratio(1e9 * incl.get("simulator.grover_run", 0.0), updates), "ns"),
        "serialize.bytes_in": metric(bytes_in, "B"),
        "serialize.bytes_out": metric(bytes_out, "B"),
        "serialize.loads_mb_per_s": metric(
            ratio(bytes_in / 1e6, incl.get("serialize.loads", 0.0)), "MB/s"),
        "serialize.dumps_mb_per_s": metric(
            ratio(bytes_out / 1e6, incl.get("serialize.dumps_canonical", 0.0)), "MB/s"),
        "tensor_eval.slices": metric(count("tensor_eval.slices"), "count"),
        "tensor_eval.computed_flops": metric(count("tensor_eval.computed_flops"), "count"),
        "tensor_eval.max_slice_elements": metric(count("tensor_eval.max_slice_elements"), "count"),
        "tensor_eval.useful_element_ratio": metric(
            ratio(count("tensor_eval.useful_elements"), count("tensor_eval.slice_elements")), "ratio"),
        "tensor_eval.peak_alloc_mb": metric(res["peak_alloc_mb"].get("tensor_eval", 0.0), "MB"),
        "grover_diagram.peak_alloc_mb": metric(res["peak_alloc_mb"].get("grover_diagram", 0.0), "MB"),
        "rewrite.steps": metric(steps, "count"),
        "rewrite.ms_per_step": metric(ratio(1e3 * incl.get("rewrite.normalize", 0.0), steps), "ms"),
        "rewrite.soundness_instances": metric(count("rewrite.soundness_instances"), "count"),
        "trace.overhead_ratio": metric(res["traced_s"] / res["untraced_s"], "ratio"),
    })
    covered = sum(self_s.get(name, 0.0) for name in TARGETS) / incl["request"]
    metrics["trace.self_time_coverage"] = metric(covered, "ratio")
    notes = [
        f"traced {res['requests']} requests: {res['untraced_s']:.2f} s untraced,"
        f" {res['traced_s']:.2f} s traced, {res['spans']} spans",
        f"layer self times cover {covered:.4f} of request wall time;"
        f" counts repeat between the traced and the memory pass: {res['counts_repeat']}",
    ]
    problems = []
    if not res["counts_repeat"]:
        problems.append("count metrics differ between the traced and the memory pass")
    if abs(covered - 1) > 1 - SELF_TIME_COVERAGE:
        problems.append(f"self times cover only {covered:.4f} of request wall time")
    return metrics, notes, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "grover_lab" / "cli.py").is_file():
        print(f"no grover_lab sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setup_times = [] if args.trace else cold_starts(env)
        worker(env, "prepare", args.workload, args.seed, work)
        if args.trace:
            spans = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            res = worker(env, "trace", args.workload, args.seed, work, args.seconds, "--spans", spans)
        else:
            setup_times += cold_starts(env)
            res = worker(env, "measure", args.workload, args.seed, work, args.seconds)
            setup_times += cold_starts(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(res["failures"])
    if args.trace:
        metrics, notes, trace_problems = per_layer(res)
        problems += trace_problems
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(args.workload, res, setup_times)
    env_info = ", ".join(f"{k} {v}" for k, v in res["env"].items())
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; {env_info}")
    for line in notes:
        print("  " + line)
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    for problem in problems[:10]:
        print("  FAIL " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
