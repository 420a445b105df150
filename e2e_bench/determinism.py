#!/usr/bin/env python3
"""Determinism and held-out-seed check of the end-to-end benchmark.

Usage, from the repository root:

    python3 e2e_bench/determinism.py

For each workload:

  * runs the traced run (--trace 1) twice with SEED and requires
    every deterministic counter to be bit-identical: the per-layer metrics
    whose unit is a count or a ratio (trace.* excepted, being timings), and
    the op counts of the run record;
  * runs an untraced run with HELD_OUT_SEED, never used while the benchmark
    was tuned, and requires it to complete with no failed op;
  * requires every run record to carry the seed, sizes, nproc, git
    revision and build type.

Exits 1 on any mismatch or failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD_KEYS = ("seed", "sizes", "nproc", "git_revision", "build_type", "ops")
SEED = 7
HELD_OUT_SEED = 424242
# The traced run replays a fixed number of ops, so its length does not
# change what it counts.
DETERMINISM_SECONDS = 5


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{done.returncode}: {done.stderr.strip()[-400:]}")
    record, result = json.loads(lines[-2])["run"], json.loads(lines[-1])
    missing = [key for key in RECORD_KEYS if key not in record]
    if missing:
        raise RuntimeError(f"run record lacks {missing}")
    return record, result


def deterministic(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if metric["unit"] in ("count", "ratio")
            and not name.startswith("trace.")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first_record, first = run(workload, SEED, DETERMINISM_SECONDS, 1)
        second_record, second = run(workload, SEED, DETERMINISM_SECONDS, 1)
        a, b = deterministic(first), deterministic(second)
        differing = sorted(name for name in a if a[name] != b.get(name))
        if first_record["ops"] != second_record["ops"]:
            differing.append("op counts")
        for result in (first, second):
            if not result["correct"] or result["failed"] != 0:
                differing.append("failed ops")
        print(f"{workload}: {len(a)} counters and the op counts "
              + ("repeat exactly" if not differing
                 else f"DIFFER: {', '.join(differing)}"))
        ok = ok and not differing

        record, held_out = run(workload, HELD_OUT_SEED, spec["run_seconds"], 0)
        clean = held_out["correct"] and held_out["failed"] == 0
        print(f"{workload}: held-out seed {HELD_OUT_SEED}: "
              f"{held_out['attempted']} ops, {held_out['failed']} failed"
              + ("" if clean else f" {record.get('errors')}"))
        ok = ok and clean
    print("deterministic" if ok else "NOT DETERMINISTIC")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
