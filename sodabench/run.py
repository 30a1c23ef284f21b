#!/usr/bin/env python3
"""Builds the SODA benchmark (Release) and runs it.

One workload run, as BENCHMARK.json names it:

    python3 sodabench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

runs the benchmark program in PROCESSES successive processes of
seconds / PROCESSES each, prints their manifests and check lists, and ends
with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Each metric is the median of the processes' values; attempted and failed
are their sums, and correct holds when every process passed its checks.
--trace 1 gives the per-layer metrics instead of the end-to-end ones and
writes each process's spans to .bench_build/traces/<workload>-<seed>-<k>.json.

Two more modes:

    python3 sodabench/run.py --steadiness [--runs 10] [--seconds 10]
        repeats every workload with seeds 1..runs and prints, per workload,
        the median and interquartile range of each end-to-end metric and the
        share of failed operations;
    python3 sodabench/run.py --selftest
        runs every workload at a tiny scale, untraced and traced, and checks
        that every metric BENCHMARK.json names is printed with its unit and
        that every output check ran.

Run it from the repository root. The build lives in .bench_build/sodabench.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sodabench")
BINARY = os.path.join(BUILD, "sodabench")
WORKLOADS = ["corpus", "serve", "fleet", "shared-link"]
RUN_TIMEOUT_S = 170
# A run is split over this many successive processes and reports the median
# of their figures. One process's figures move together by up to 25% from
# one process to the next on a shared host; a median over four cuts that
# spread between runs by about half (see README.md).
PROCESSES = 4

# The output checks each workload must run (the self-test requires them all).
CHECKS = {
    "corpus": ["corpus.qoe_formula", "corpus.value_ranges", "corpus.mean_qoe",
               "corpus.table_vs_exact_qoe", "corpus.independent_replay"],
    "serve": ["serve.reference_decisions", "serve.shadow_mismatches",
              "serve.hostile_failures", "serve.batch_size"],
    "fleet": ["fleet.started_identity", "fleet.ended_identity",
              "fleet.qoe_histogram", "fleet.live_state_bytes",
              "fleet.region_totals", "fleet.coupling_engaged",
              "fleet.repeat_identical",
              "fleet.thread_shard_identical"],
    "shared-link": ["shared_link.capacity", "shared_link.jain",
                    "shared_link.reference_identical",
                    "shared_link.repeat_identical"],
}


def fail(message):
    print("sodabench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SODA sources under %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        step = subprocess.run(configure, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if step.returncode != 0:
            sys.stderr.write(step.stdout)
            fail("configure failed")
    step = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if step.returncode != 0:
        sys.stderr.write(step.stdout)
        fail("build failed")


def run_process(workload, seed, seconds, trace, index, quick, timeout):
    """Runs the binary once; returns (exit code, stdout lines, result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if quick:
        cmd.append("--quick")
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%s-%d.json" % (workload, seed, index))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def run_once(workload, seed, seconds, trace, quick=False, echo=True):
    """One run: PROCESSES successive processes, their figures combined.

    Returns (exit code, stdout lines of every process, combined result or
    None). A process that ends without a result line makes the run fail
    without one.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    lines, results, code = [], [], 0
    for index in range(PROCESSES):
        step, out, result = run_process(workload, seed, seconds / PROCESSES,
                                         trace, index, quick,
                                         deadline - time.monotonic())
        if result is None or step not in (0, 1):
            sys.stderr.write("\n".join(out) + "\n")
            fail("%s process %d ended with exit %d and no result" %
                 (workload, index, step))
        code = max(code, step)
        lines += out[:-1]
        results.append(result)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    combined = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics}
    lines.append(json.dumps(combined))
    if echo:
        print("processes: %d x %g s, metrics are their medians" %
              (PROCESSES, seconds / PROCESSES))
        print("\n".join(lines))
        sys.stdout.flush()
    return code, lines, combined


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(runs, seconds):
    spec = load_benchmark()
    names = [m["name"] for m in spec["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in WORKLOADS:
        values = {name: [] for name in names}
        shares = set()
        for seed in range(1, runs + 1):
            code, _, result = run_once(workload, seed, seconds, False, echo=False)
            if code != 0 or result is None or not result["correct"]:
                fail("%s seed %d failed (exit %d)" % (workload, seed, code))
            shares.add((result["failed"], result["attempted"]))
            for name in names:
                values[name].append(result["metrics"][name]["value"])
        failed_shares = sorted({f / a for f, a in shares})
        print("%s (%d runs, %g s): failed share %s" %
              (workload, runs, seconds, ", ".join("%.6f" % s for s in failed_shares)))
        for name in names:
            v = values[name]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            worst = max(worst, spread / bounds[name])
            print("  %-20s median %14.6g  q1 %14.6g  q3 %14.6g  iqr/median %.4f"
                  "  (bound %.2f)" % (name, q2, q1, q3, spread, bounds[name]))
    print("largest spread as a share of its bound: %.3f" % worst)


def selftest():
    spec = load_benchmark()
    problems = []
    for workload in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            code, lines, result = run_once(workload, 1, 1, trace, quick=True,
                                           echo=False)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result" % (tag, code))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            if not result["correct"] or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s" %
                                (tag, result["correct"], result["attempted"]))
            printed = result["metrics"]
            for metric in spec[group]:
                got = printed.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append("%s: %s missing or unit %r" %
                                    (tag, metric["name"], got and got.get("unit")))
            extra = set(printed) - {m["name"] for m in spec[group]}
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s" %
                                (tag, sorted(extra)))
            ran = {line.split()[1] for line in lines if line.startswith("  check ")}
            for check in CHECKS[workload]:
                if check not in ran:
                    problems.append("%s: check %s did not run" % (tag, check))
            print("%-24s ok=%s attempted=%d failed=%d checks=%d" %
                  (tag, not problems, result["attempted"], result["failed"], len(ran)))
    for problem in problems:
        print("SELFTEST PROBLEM " + problem)
    print("selftest %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        return selftest()
    if args.steadiness:
        steadiness(args.runs, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    code, _, _ = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
