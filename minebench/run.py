#!/usr/bin/env python3
"""Builds the mining benchmark from source and runs one workload.

Usage (from the root of a checkout):
  python3 minebench/run.py --workload fpm3-er --seed 7 --seconds 10 --trace 0

--workload is one of fpm3-er, kcl5-cl, sm-q2-cl8-auto, or `all`. --trace 0
reports the end-to-end metrics (all in-program tracing off); --trace 1 adds a
traced run and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See minebench/README.md for every metric.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
BUILD_DIR = REPO_DIR / ".bench_build" / "minebench"
BINARY = BUILD_DIR / "minebench"
WORKLOADS = ["fpm3-er", "kcl5-cl", "sm-q2-cl8-auto"]
# Once the build is done, the oracle and the measurement of one workload
# share this many seconds, so that a run ends within 180 s.
RUN_BUDGET_S = 170


def fail(message):
    print(f"minebench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (REPO_DIR / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {REPO_DIR / 'src'}; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
         "minebench"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_until(cmd, deadline, what, **kwargs):
    """subprocess.run, killed (and waited for) when the deadline passes."""
    try:
        return subprocess.run(cmd, timeout=max(deadline - time.monotonic(), 0),
                              **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"{what} did not finish within {RUN_BUDGET_S} s")


def oracle_dir(workload, seed, deadline):
    """CPU oracle results, computed once per graph and build, then reused."""
    path = BUILD_DIR / "oracle" / str(BINARY.stat().st_mtime_ns)
    path.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "oracle", "--workload", workload, "--seed",
           str(seed), "--oracle-dir", str(path)]
    if run_until(cmd, deadline, f"{workload} oracle").returncode != 0:
        fail(f"oracle failed for {workload} at seed {seed}")
    return path


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    spec = REPO_DIR / "BENCHMARK.json"
    if not spec.is_file():
        return None
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in json.loads(spec.read_text())[key]]


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [str(BINARY), "measure", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--oracle-dir", str(oracle_dir(workload, seed, deadline))]
    proc = run_until(cmd, deadline, workload, stdout=subprocess.PIPE,
                     text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    names = expected_metrics(trace)
    if names is not None and list(result["metrics"]) != names:
        fail(f"{workload} reported {list(result['metrics'])}, "
             f"BENCHMARK.json lists {names}")
    print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = measure(workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
