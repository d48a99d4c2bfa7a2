#!/usr/bin/env bash
# Runs the four JSON perf benches and writes one report per suite into
# results/ (ACBM_BENCH_OUT_DIR overrides the directory):
#
#   BENCH_kernels.json   GEMM, OLS, MLP/NAR fits, tanh, f64 predict paths
#   BENCH_ingest.json    snapshot append+validate, log recovery, drift check
#   BENCH_serve.json     .armm vs framed cold start, predict, daemon qps
#   BENCH_generate.json  attacks/sec for every catalog scenario
#
# Every report has the one schema acbm-bench-v1 (bench/bench_util.h): the
# git SHA, CPU model, active SIMD ISA, thread count, and per-benchmark
# median/min of N wall-clock runs plus a result checksum. Each bench writes
# its JSON to stdout (captured into the file) and its progress to stderr. A
# checksum that is non-finite or changes between runs fails the bench.
#
# A benchmark result is only comparable when it describes a commit, so this
# refuses to run on a dirty tree (set ACBM_BENCH_ALLOW_DIRTY=1 to override
# while iterating locally — the SHA is then suffixed with "-dirty").
#
# When an existing report was produced on a different ISA the numbers are
# not comparable, and this refuses to overwrite any report before running
# a bench (ACBM_BENCH_ALLOW_CROSS_ISA=1 overrides).
#
# Usage: scripts/bench.sh [extra bench args, e.g. --repeat 9]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${ACBM_BENCH_BUILD_DIR:-$repo_root/build}"
out_dir="${ACBM_BENCH_OUT_DIR:-$repo_root/results}"
suites=(kernels ingest serve generate)

sha="$(git -C "$repo_root" rev-parse HEAD)"
if [[ -n "$(git -C "$repo_root" status --porcelain)" ]]; then
  if [[ "${ACBM_BENCH_ALLOW_DIRTY:-0}" != "1" ]]; then
    echo "bench.sh: working tree is dirty; benchmark numbers must describe" >&2
    echo "bench.sh: a commit. Commit or stash first, or set" >&2
    echo "bench.sh: ACBM_BENCH_ALLOW_DIRTY=1 to tag the result as dirty." >&2
    exit 1
  fi
  sha="$sha-dirty"
fi

cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
  -DACBM_BUILD_BENCH=ON >&2
cmake --build "$build_dir" -j"$(nproc)" \
  --target "${suites[@]/#/bench_}" >&2

cpu_model="$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
if [[ -z "$cpu_model" ]]; then cpu_model="unknown"; fi

isa="$("$build_dir/bench/bench_kernels" --print-isa)"
for suite in "${suites[@]}"; do
  out_file="$out_dir/BENCH_$suite.json"
  [[ -f "$out_file" ]] || continue
  prev_isa="$(sed -n 's/^  "isa": "\(.*\)",$/\1/p' "$out_file" | head -1)"
  if [[ -n "$prev_isa" && "$prev_isa" != "$isa" ]]; then
    if [[ "${ACBM_BENCH_ALLOW_CROSS_ISA:-0}" != "1" ]]; then
      echo "bench.sh: $out_file was produced on ISA '$prev_isa' but this" >&2
      echo "bench.sh: machine runs '$isa'; the numbers are not" >&2
      echo "bench.sh: comparable. Set ACBM_BENCH_ALLOW_CROSS_ISA=1 to" >&2
      echo "bench.sh: overwrite anyway." >&2
      exit 1
    fi
    echo "bench.sh: warning: overwriting '$prev_isa' results with '$isa'" >&2
  fi
done

mkdir -p "$out_dir"
for suite in "${suites[@]}"; do
  out_file="$out_dir/BENCH_$suite.json"
  # Write beside the report and rename, so a failed bench (a usage error,
  # a bad checksum) leaves the previous report in place.
  if ! "$build_dir/bench/bench_$suite" --sha "$sha" --cpu "$cpu_model" "$@" \
      > "$out_file.tmp"; then
    rm -f "$out_file.tmp"
    echo "bench.sh: bench_$suite failed; $out_file left as it was" >&2
    exit 1
  fi
  mv "$out_file.tmp" "$out_file"
  echo "bench.sh: wrote $out_file (isa: $isa)" >&2
done
