#!/usr/bin/env python3
"""gpuvm end-to-end benchmark runner.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the gpuvm
libraries from src/) into .bench_build/, then runs rounds of one workload
until the next round would end past --seconds. Each round is a fresh
gpuvm_bench process: it sets the deployment up several times, runs a
closed loop of 4 tenants through it, verifies every job and prints its
metrics. Every round of a run shuffles the same job multiset with its own
ordering derived from (seed, round index); this script folds the rounds
into one result per metric (see end_to_end()).

  python3 perfbench/run.py --workload node-short --seed 1 --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics from untraced rounds. --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
from the traced ones, plus the tracing overhead. Every metric is printed
by name with its unit and clock; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every job verified and the shape counters (frontend calls per
op, kernels launched, and on the node workloads transport messages)
repeated exactly across rounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "gpuvm_bench"

WORKLOADS = ("node-short", "node-oversub", "cluster-shed")
DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # kept out of tuning; confirm later claims on it
ROUND_TIMEOUT_S = 120  # a hung round must not keep a run past three minutes

# (name, unit, clock). End-to-end metrics come from untraced rounds.
END_TO_END = [
    ("makespan_s", "s", "modeled"),
    ("job_p50_s", "s", "modeled"),
    ("job_tail_s", "s", "modeled"),
    ("host_cpu_s", "s", "host"),
    ("rss_peak_mib", "MiB", "host"),
    ("setup_s", "s", "host"),
]
# Printed with the end-to-end metrics but not reported in the JSON: it is
# 0 on every passing run, and the JSON's "failed" field carries it.
FAILED_FRAC = ("failed_frac", "ratio", "-")

PER_LAYER = [
    ("frontend.calls", "count", "count"),
    ("frontend.launch.calls", "count", "count"),
    ("frontend.h2d.calls", "count", "count"),
    ("frontend.d2h.calls", "count", "count"),
    ("frontend.malloc.calls", "count", "count"),
    ("frontend.free.calls", "count", "count"),
    ("frontend.launch.modeled_us_p50", "us", "modeled"),
    ("frontend.launch.modeled_us_tail", "us", "modeled"),
    ("frontend.d2h.modeled_us_p50", "us", "modeled"),
    ("frontend.failed_calls", "count", "count"),
    ("frontend.host_us_per_call", "us", "host"),
    ("transport.messages", "count", "count"),
    ("transport.payload_bytes", "B", "count"),
    ("runtime.launches", "count", "count"),
    ("runtime.swap_retry_backoffs", "count", "count"),
    ("runtime.offloaded_connections", "count", "count"),
    ("runtime.offload_fallbacks", "count", "count"),
    ("sched.binds", "count", "count"),
    ("sched.unbinds", "count", "count"),
    ("sched.queue_wait_s_p50", "s", "modeled"),
    ("sched.queue_wait_s_sum", "s", "modeled"),
    ("mm.inter_app_swaps", "count", "count"),
    ("mm.intra_app_swaps", "count", "count"),
    ("mm.swap_out_bytes", "B", "count"),
    ("mm.swap_in_bytes", "B", "count"),
    ("mm.bulk_transfers", "count", "count"),
    ("mm.dirty_bytes_saved", "B", "count"),
    ("mm.writeback_fences", "count", "count"),
    ("sim.kernels_launched", "count", "count"),
    ("sim.compute_busy_s", "s", "modeled"),
    ("sim.copy_busy_s", "s", "modeled"),
    ("sim.gpu_busy_frac", "ratio", "modeled"),
    ("sim.bytes_to_device", "B", "count"),
    ("sim.bytes_from_device", "B", "count"),
    ("sim.kernel_body_cpu_s", "s", "host"),
    ("vt.advances", "count", "count"),
    ("vt.events_dispatched", "count", "count"),
    ("vt.host_cpu_us_per_advance", "us", "host"),
    ("cluster.head_queue_s_p50", "s", "modeled"),
    ("cluster.offloaded", "count", "count"),
    ("cluster.offload_fallbacks", "count", "count"),
    ("cluster.placement_share.node-a", "ratio", "count"),
    ("cluster.placement_share.node-b", "ratio", "count"),
    ("cluster.heartbeats", "count", "count"),
    ("trace.job.self_s", "s", "modeled"),
    ("trace.frontend.self_s", "s", "modeled"),
    ("trace.launch.self_s", "s", "modeled"),
    ("trace.sched.self_s", "s", "modeled"),
    ("trace.swap.self_s", "s", "modeled"),
    ("trace.cudart.self_s", "s", "modeled"),
    ("trace.kernel.self_s", "s", "modeled"),
    ("trace.xfer.self_s", "s", "modeled"),
    ("trace.transport.self_s", "s", "modeled"),
    ("trace.offload.self_s", "s", "modeled"),
    ("trace.cluster.self_s", "s", "modeled"),
    ("host.wall_s", "s", "host"),
    ("host.trace_overhead", "ratio", "host"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: gpuvm sources (src/) not found next to perfbench/; cannot build")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "gpuvm_bench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            sys.exit(2)


def run_round(workload, seed, index, traced):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--round", str(index),
           "--trace", "1" if traced else "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=ROUND_TIMEOUT_S, check=False)
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"round failed (exit {done.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1])


def median_of(rounds, name):
    return statistics.median(r["metrics"].get(name, 0.0) for r in rounds)


def end_to_end(rounds):
    """The end-to-end metrics of a run from its untraced rounds.

    Job latencies are pooled over rounds. job_p50_s is the mean of the
    pooled latencies from p40 to p60: modeled latencies bunch at exact
    values per (app, node), and where the median falls between two bunches
    (cluster-shed) it flipped by 15% from run to run. The tail is read at
    the percentile one round's job count defines (10 jobs beyond it), so it
    does not depend on how many rounds fit in the run. The other metrics
    are medians over rounds.
    """
    pooled = sorted(v for r in rounds for v in r["job_latencies_s"])
    n = len(pooled)
    beyond = 10 * len(rounds)
    return {
        "makespan_s": median_of(rounds, "makespan_s"),
        "job_p50_s": statistics.fmean(pooled[int(0.4 * n):int(0.6 * n) + 1]),
        "job_tail_s": pooled[len(pooled) - beyond - 1],
        "host_cpu_s": median_of(rounds, "host_cpu_s"),
        "rss_peak_mib": median_of(rounds, "rss_peak_mib"),
        "setup_s": median_of(rounds, "setup_s"),
    }


def shape_guard(rounds):
    """Names of shape counters that did not repeat exactly across rounds."""
    first = rounds[0]["shape"]
    return sorted({k for r in rounds[1:] for k in set(first) | set(r["shape"])
                   if r["shape"].get(k) != first.get(k)})


def show(workload, name, value, unit, clock):
    print(f"{workload:13s} {name:36s} {value:18.6f} {unit:6s} [{clock}]")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()

    # Rounds run until the next one would end past --seconds (judged by the
    # longest round so far), but at least two untraced rounds, or one of each
    # kind when tracing.
    untraced, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        want_traced = args.trace == 1 and len(traced) < len(untraced)
        began = time.monotonic()
        rnd = run_round(args.workload, args.seed, len(untraced) + len(traced), want_traced)
        longest = max(longest, time.monotonic() - began)
        (traced if want_traced else untraced).append(rnd)
        enough = len(untraced) >= 2 if args.trace == 0 else len(traced) >= 1
        if enough and time.monotonic() - start + longest > args.seconds:
            break

    rounds = untraced + traced
    attempted = sum(r["jobs"] for r in rounds)
    failed = sum(r["jobs_failed"] for r in rounds)
    broken = shape_guard(rounds)
    if broken:
        log("EXACT-COUNT GUARD BROKEN: these shape counters differ between rounds of the "
            f"same seed: {', '.join(broken)}")
        for r in rounds:
            log("  " + json.dumps({k: r["shape"].get(k) for k in broken}))
    if failed:
        log(f"{failed} of {attempted} jobs failed or did not verify")
    correct = failed == 0 and not broken

    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced rounds, {untraced[0]['jobs']} jobs each")
    metrics = {}
    e2e = end_to_end(untraced)
    for name, unit, clock in END_TO_END:
        value = e2e[name]
        show(args.workload, name, value, unit, clock)
        if args.trace == 0:
            metrics[name] = {"value": value, "unit": unit}
    show(args.workload, FAILED_FRAC[0], failed / attempted, *FAILED_FRAC[1:])
    jobs = untraced[0]["jobs"]
    print(f"# job_tail_s is the p{100 * (jobs - 10) / jobs:.1f} job latency: 10 of each "
          f"round's {jobs} jobs lie beyond it, {10 * len(untraced)} of the "
          f"{jobs * len(untraced)} pooled")
    if args.trace == 1:
        for name, unit, clock in PER_LAYER:
            if name == "host.trace_overhead":
                value = median_of(traced, "host_cpu_s") / e2e["host_cpu_s"]
            elif name == "host.wall_s":
                value = median_of(untraced, name)
            else:
                value = median_of(traced, name)
            show(args.workload, name, value, unit, clock)
            metrics[name] = {"value": value, "unit": unit}
        dropped = median_of(traced, "trace.dropped")
        if dropped:
            log(f"warning: the trace recorder dropped {dropped:.0f} events")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
