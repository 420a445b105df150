#!/usr/bin/env bash
# Runs every Google-benchmark binary in the build tree and collects the
# results into one JSON array at BENCH_engine.json (repo root by default).
#
# Usage: bench/run_benches.sh [--profile | --filter <regex>] \
#                              [build_dir] [output_json]
#   --profile    re-run the evaluation benches with per-rule profiling on
#                (LDL_BENCH_PROFILE_DIR) and collect the EvalProfile JSON each
#                benchmark dumps into BENCH_profile.json, keyed by benchmark
#                name; wall times in the profiles include the profiling
#                overhead, so the timing series of record stays BENCH_engine.json
#   --filter RE  run only the benchmarks whose names match RE and print their
#                deltas against the committed baseline WITHOUT touching the
#                output JSON -- a quick check of the benches a change targets
#                that cannot invalidate the committed full-suite report
#   build_dir    defaults to ./build
#   output_json  defaults to <repo_root>/BENCH_engine.json
#                (<repo_root>/BENCH_profile.json under --profile)
#
# Pass a benchmark filter through BENCH_FILTER, e.g.
#   BENCH_FILTER='TcSemiNaive|AncestorMagic' bench/run_benches.sh
# (unlike --filter, BENCH_FILTER alone still rewrites the output JSON).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
profile=0
no_write=0
if [[ "${1:-}" == "--profile" ]]; then
  profile=1
  shift
elif [[ "${1:-}" == "--filter" ]]; then
  no_write=1
  shift
  if [[ -z "${1:-}" ]]; then
    echo "error: --filter needs a benchmark-name regex" >&2
    exit 1
  fi
  BENCH_FILTER="$1"
  shift
fi
build_dir="${1:-${repo_root}/build}"
default_output="${repo_root}/BENCH_engine.json"
if [[ ${profile} -eq 1 ]]; then
  default_output="${repo_root}/BENCH_profile.json"
fi
output="${2:-${default_output}}"
filter="${BENCH_FILTER:-}"

bench_dir="${build_dir}/bench"
if [[ ! -d "${bench_dir}" ]]; then
  echo "error: ${bench_dir} not found; configure and build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# Refuse to record timings from an unoptimized engine. The gate reads the
# repo's own CMakeCache (the Debian libbenchmark package self-reports
# library_build_type "debug" no matter how we build, so that field cannot be
# trusted); the build type lands on every merged entry as engine_build_type.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
  "${build_dir}/CMakeCache.txt" 2>/dev/null || true)"
case "${build_type}" in
  Release|RelWithDebInfo) ;;
  *)
    echo "error: ${build_dir} is configured as '${build_type:-<empty>}';" >&2
    echo "benchmark timings are only recorded from an optimized build." >&2
    echo "Reconfigure first:" >&2
    echo "  cmake -B ${build_dir} -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo" >&2
    echo "  cmake --build ${build_dir} -j" >&2
    exit 1
    ;;
esac
export ENGINE_BUILD_TYPE="${build_type}"

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

if [[ ${profile} -eq 1 ]]; then
  # Each evaluation benchmark writes <name>.profile.json here (bench_util.h);
  # one short iteration per benchmark is enough for a profile.
  export LDL_BENCH_PROFILE_DIR="${tmp_dir}/profiles"
  mkdir -p "${LDL_BENCH_PROFILE_DIR}"
fi

runs=()
for binary in "${bench_dir}"/bench_*; do
  [[ -x "${binary}" && -f "${binary}" ]] || continue
  name="$(basename "${binary}")"
  json="${tmp_dir}/${name}.json"
  echo "== ${name}" >&2
  args=(--benchmark_format=json --benchmark_out="${json}" \
        --benchmark_out_format=json)
  if [[ ${profile} -eq 1 ]]; then
    args+=(--benchmark_min_time=0.01)
  fi
  if [[ -n "${filter}" ]]; then
    args+=("--benchmark_filter=${filter}")
  fi
  "${binary}" "${args[@]}" > /dev/null || {
    echo "warning: ${name} exited nonzero; skipping" >&2
    continue
  }
  # A filter that matches nothing leaves an empty report behind.
  [[ -s "${json}" ]] || continue
  runs+=("${json}")
done

if [[ ${#runs[@]} -eq 0 ]]; then
  echo "error: no bench_* binaries under ${bench_dir}" >&2
  exit 1
fi

if [[ ${profile} -eq 1 ]]; then
  # Merge the per-benchmark EvalProfile dumps into one object keyed by
  # benchmark name ('/' in names became '_' in the file names).
  python3 - "${output}" "${LDL_BENCH_PROFILE_DIR}" <<'PY'
import json
import os
import sys

output, profile_dir = sys.argv[1:]
merged = {}
for entry in sorted(os.listdir(profile_dir)):
    if not entry.endswith(".profile.json"):
        continue
    with open(os.path.join(profile_dir, entry)) as f:
        merged[entry[: -len(".profile.json")]] = json.load(f)
if not merged:
    sys.exit("error: no benchmark wrote a profile; rebuild the bench binaries")
with open(output, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"wrote {output} ({len(merged)} benchmark profiles)")
PY
  exit 0
fi

# Concatenate the per-binary reports into one JSON array, tagging each entry
# with the binary it came from. Before overwriting, each benchmark's
# real_time is compared against the previously committed report so a run
# prints a one-line delta per benchmark (regressions are visible without
# diffing JSON by hand). Under --filter the deltas are the whole point: the
# subset run prints them and leaves the committed report untouched.
NO_WRITE="${no_write}" \
  python3 - "${output}" "${runs[@]}" <<'PY'
import json
import os
import sys

output, *paths = sys.argv[1:]
merged = []
baseline = {}
if os.path.exists(output):
    with open(output) as f:
        previous = json.load(f)
    for report in previous:
        for bench in report.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            baseline.setdefault(bench["name"], bench.get("real_time"))
for path in paths:
    with open(path) as f:
        report = json.load(f)
    report["binary"] = os.path.basename(path)[: -len(".json")]
    # The repo engine's build type (gated above); the library_build_type the
    # benchmark library reports describes libbenchmark itself, not libldl1.
    report["engine_build_type"] = os.environ.get("ENGINE_BUILD_TYPE", "")
    merged.append(report)
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name, new = bench["name"], bench.get("real_time")
        unit = bench.get("time_unit", "ns")
        old = baseline.get(name)
        if old and new is not None:
            pct = 100.0 * (new - old) / old
            print(f"  {name}: {old:.3g} -> {new:.3g} {unit} ({pct:+.1f}%)")
        elif new is not None:
            print(f"  {name}: {new:.3g} {unit} (new)")
if os.environ.get("NO_WRITE") == "1":
    print(f"left {output} untouched (--filter run)")
else:
    with open(output, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(merged)} benchmark binaries)")
PY
