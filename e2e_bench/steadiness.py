#!/usr/bin/env python3
"""Checks that the end-to-end benchmark is steady enough to bound regressions.

Usage, from the repository root:

    python3 e2e_bench/steadiness.py [--json FILE]

Runs SETS independent sets of RUNS untraced runs per workload, each run
with its own seed (set k uses seeds FIRST_SEED + 1000 k + i). For every
workload and end-to-end metric of BENCHMARK.json it prints each set's median
and quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median,
and whether

  * the spread stays within the metric's bound, and
  * every later set's median differs from the first set's by no more than
    the bound, in either direction.

--json writes the same table as JSON to FILE.

Each run also reports the medians of the first and second half of its
samples; a run whose halves differ by more than the matching bound (0.25
for metrics without one) is flagged as drifting. Drift points at state that
grows during a run, such as tombstoned rows (eval.dead_row_ratio) or
predicates registered per magic query; it is reported, not failed, since it
is the engine's behaviour rather than the benchmark's noise.

Exits 1 when a run fails or a spread or an agreement check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_DRIFT_BOUND = 0.25
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    """One untraced run; returns (run record, result) or raises."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def worse_by(first, later, better):
    """Relative change of `later` against `first`, positive when worse."""
    if first == 0:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    metrics = spec["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    summary = {}
    for workload in workloads:
        sets = []
        for k in range(SETS):
            values = {m["name"]: [] for m in metrics}
            for i in range(RUNS):
                seed = FIRST_SEED + 1000 * k + i
                run, result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"] or result["failed"] != 0:
                    print(f"FAIL {workload} seed {seed}: {run.get('errors')}")
                    ok = False
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                for name, halves in run.get("drift", {}).items():
                    first, second = halves["first_half"], halves["second_half"]
                    bound = bounds.get(name, DEFAULT_DRIFT_BOUND)
                    if first > 0 and abs(second / first - 1) > bound:
                        print(f"DRIFT {workload} seed {seed} {name}: "
                              f"{first:.4g} -> {second:.4g}")
                print(f"  {workload} set {k} seed {seed} done", file=sys.stderr,
                      flush=True)
            sets.append(values)

        summary[workload] = {}
        print(f"\n{workload}")
        print(f"  {'metric':16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = []
            for k, values in enumerate(sets):
                q1, med, q3 = statistics.quantiles(values[name], n=4)
                spread = (q3 - q1) / med if med else float("inf")
                rows.append({"q1": q1, "median": med, "q3": q3, "spread": spread})
                verdicts = ["steady" if spread <= bound else "UNSTEADY"]
                if spread > bound / 3:
                    verdicts.append("(above a third of the bound)")
                if k > 0:
                    change = worse_by(rows[0]["median"], med, m["better"])
                    agree = abs(change) <= bound
                    verdicts.append(f"{'agrees' if agree else 'DISAGREES'} "
                                    f"({change:+.3f} worse than set 0)")
                    ok = ok and agree
                ok = ok and spread <= bound
                print(f"  {name:16} {k:>3} {q1:12.5g} {med:12.5g} {q3:12.5g} "
                      f"{spread:7.3f} {bound:6.2f}  {' '.join(verdicts)}")
            summary[workload][name] = rows
    if args.json:
        with open(args.json, "w") as out:
            json.dump(summary, out, indent=1)
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
