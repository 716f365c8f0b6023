#!/usr/bin/env python3
"""Build and run the SCALO serving benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_radio --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), runs one workload, and passes its output through.
The last stdout line is the result object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`,
carrying the end-to-end metrics with `--trace 0` and the per-layer metrics
with `--trace 1`, exactly the names BENCHMARK.json lists. Exits non-zero,
without a result, if the build, the run or that name check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_radio", "swap_churn", "crash_recover")
# Generous ceiling for one run; a healthy run takes run_seconds plus a few.
RUN_TIMEOUT_S = 170


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def reference(exe):
    out = subprocess.run([exe, "--reference"], stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout)


def run_checked(cmd, env):
    """Runs one benchmark process; its stdout lines, or None on failure."""
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return None
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    # Earlier runs' digests and work counts are kept per build: a
    # program change that rightly moves the work starts a fresh record.
    with open(exe, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    cmd = [exe,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", os.path.join(target, "perfbench-state", build_id)]
    reference_before = reference(exe)
    peak_rss = None
    if not args.trace:
        # Peak RSS from a process that serves one round of each slice and
        # nothing else, with one malloc arena: under per-thread arenas,
        # where a session is built and where it is freed depends on
        # thread timing, and swap_churn's peak RSS varied from 23 to 33 MB
        # for one seed. The timed run below keeps the allocator's defaults.
        rss = run_checked(cmd + ["--peak-rss"], dict(os.environ, MALLOC_ARENA_MAX="1"))
        if rss is None:
            return 1
        peak_rss = json.loads(rss[-1])
    lines = run_checked(cmd, os.environ)
    if lines is None:
        return 1
    reference_after = reference(exe)
    result = json.loads(lines[-1])
    if peak_rss is not None:
        detail = json.loads(lines[-2])["perfbench"]
        # The timed run's first rounds serve the slices in order.
        timed = [r["digest"] for r in detail["rounds"][:len(peak_rss["digests"])]]
        if not peak_rss["correct"] or peak_rss["digests"] != timed:
            print(f"perfbench: the peak-RSS rounds ({peak_rss}) disagree with the timed run",
                  file=sys.stderr)
            result["correct"] = False
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss["peak_rss_mb"], "unit": "MB"}
        lines[-1] = json.dumps(result)
    want = expected_metrics(args.trace)
    if set(result["metrics"]) != want:
        print(f"perfbench: metrics {sorted(result['metrics'])} != BENCHMARK.json {sorted(want)}",
              file=sys.stderr)
        return 1
    # Host facts: the benchmark's reference kernels, timed in processes of
    # their own just before and after the run, and the allocator setting
    # of each process. Diagnostic only.
    lines.insert(-1, json.dumps({"reference": {"before": reference_before,
                                               "after": reference_after},
                                 "malloc_arena_max": {"timed": os.environ.get("MALLOC_ARENA_MAX"),
                                                      "peak_rss": 1}}))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
