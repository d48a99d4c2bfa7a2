#!/usr/bin/env bash
# ASan+UBSan build of the fault-tolerance surface: configures a dedicated
# build tree with ACBM_SANITIZE=address+undefined and runs the fault-injection,
# parallel-runtime, durability, observability, distributed-fit, serving,
# and perf-bench smoke suites (ctest labels `robust`, `parallel`,
# `durable`, `observe`, `distributed`, `ingest`, `serve`, `simd`, and
# `perf-smoke` — `simd` is the scalar-vs-vectorized agreement sweep,
# `perf-smoke` runs the four JSON perf benches (kernels, ingest, serve,
# generate) at tiny sizes plus the bench harness's checksum-guard test,
# `distributed` covers the sharded multi-process fit: lease stealing,
# worker crash/respawn, and the worker crash matrix, and `ingest` covers
# the streaming snapshot log, drift monitor, and incremental-refit loop
# including its crash matrix phase, so
# the whole coordination and ingestion surface sweeps under the sanitizers
# too, and `serve` covers the .armm artifact parser, the shared serving
# view, and the forecast daemon — protocol fuzz cases, LRU eviction, and
# hot swap under load — plus its crash matrix phase). A second TSan build
# then reruns the `observe`, `parallel`, `distributed`, `ingest`, and
# `serve` labels so the span-ring SPSC protocol, the metric atomics, the
# arena-under-parallel_for usage, the heartbeat/lease threads, the
# multi-threaded incremental refit, and the daemon's IO/worker/watcher
# threads (including generation swap under concurrent clients) are
# exercised under the race detector. A third build with
# -DACBM_DISABLE_SIMD=ON reruns the kernel and smoke suites on the scalar
# reference path, plus the `serve` suites that hold the f32 serving path
# to its documented bound of f64, keeping that configuration honest.
#
# Usage: scripts/sanitize.sh [build-dir]   (default: build-asan-ubsan; the
#        TSan tree lands next to it with a -tsan suffix and the scalar-only
#        tree with a -nosimd suffix)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-asan-ubsan}"

echo "sanitize.sh @ $(git -C "$repo_root" describe --always --dirty 2>/dev/null || echo unknown)"

cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DACBM_SANITIZE=address+undefined \
  -DACBM_BUILD_BENCH=ON \
  -DACBM_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j"$(nproc)"
ctest --test-dir "$build_dir" \
  -L 'robust|parallel|durable|observe|distributed|ingest|serve|simd|trace|perf-smoke' \
  --output-on-failure -j"$(nproc)"

tsan_dir="${build_dir%/}-tsan"
cmake -S "$repo_root" -B "$tsan_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DACBM_SANITIZE=thread \
  -DACBM_BUILD_BENCH=OFF \
  -DACBM_BUILD_EXAMPLES=OFF
cmake --build "$tsan_dir" -j"$(nproc)"
ctest --test-dir "$tsan_dir" -L 'observe|parallel|distributed|ingest|serve|trace' \
  --output-on-failure -j"$(nproc)"

nosimd_dir="${build_dir%/}-nosimd"
cmake -S "$repo_root" -B "$nosimd_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DACBM_DISABLE_SIMD=ON \
  -DACBM_BUILD_BENCH=ON \
  -DACBM_BUILD_EXAMPLES=OFF
cmake --build "$nosimd_dir" -j"$(nproc)"
ctest --test-dir "$nosimd_dir" -L 'simd|perf-smoke|parallel|serve' \
  --output-on-failure -j"$(nproc)"
