#!/usr/bin/env python3
"""Builds and runs the end-to-end LDL1 serving benchmark (README.md).

Usage, from the repository root:

    python3 e2e_bench/run.py --workload anc_serve --seed 1 --seconds 15 --trace 0

The first run configures and builds e2e_bench/ (a CMake package that
compiles the engine under src/) in .bench_build/e2e_bench as a Release
build; later runs only re-check the build. The benchmark binary then runs
the workload and prints, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics. The traced run (--trace 1) also
writes its spans to .bench_build/e2e_traces/<workload>-<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "ldl_e2e_bench")
WORKLOADS = ("anc_serve", "young_magic", "org_sets")
RECORDABLE_BUILD_TYPES = ("Release", "RelWithDebInfo")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step {step[:2]} failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step {' '.join(step[:2])} exited {done.returncode}")
            return False
    return True


def build_type():
    """CMAKE_BUILD_TYPE from the build's CMakeCache.txt, or ''."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def git_revision():
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2

    if not build():
        return 1
    kind = build_type()
    if kind not in RECORDABLE_BUILD_TYPES:
        log(f"refusing to record from a '{kind}' build; "
            f"need one of {', '.join(RECORDABLE_BUILD_TYPES)}")
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-rev", git_revision()]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "e2e_traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"benchmark run failed: {error}")
        return 1
    if done.returncode != 0:
        log(f"benchmark exited {done.returncode}")
        return 1
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result line")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    sys.stdout.write(done.stdout if done.stdout.endswith("\n")
                     else done.stdout + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
