#!/usr/bin/env bash
# Profiles the quickstart build with the observability layer on: builds the
# CLI, generates a small simulated world, and runs `acbm fit` and then
# `acbm pack` with --trace, --metrics, and --profile. Artifacts land under
# results/, one set per command (<cmd> = fit, pack):
#   results/PROFILE_<cmd>.trace.json   Chrome trace (chrome://tracing, Perfetto)
#   results/PROFILE_<cmd>.metrics.prom Prometheus-style metrics dump
#   results/PROFILE_<cmd>.profile.txt  merged span tree (the --profile output)
# See OBSERVABILITY.md for how to read each sink.
#
# Usage: scripts/profile.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

echo "profile.sh @ $(git -C "$repo_root" describe --always --dirty 2>/dev/null || echo unknown)"

cmake -S "$repo_root" -B "$build_dir" >/dev/null
cmake --build "$build_dir" -j"$(nproc)" --target acbm_tool
acbm="$build_dir/src/cli/acbm"

work="$(mktemp -d /tmp/acbm_profile.XXXXXX)"
trap 'rm -rf "$work"' EXIT

"$acbm" generate --seed 1 --days 30 \
  --dataset "$work/trace.csv" --ipmap "$work/ipmap.txt"

mkdir -p "$repo_root/results"
"$acbm" fit \
  --dataset "$work/trace.csv" --ipmap "$work/ipmap.txt" \
  --model "$work/model.acbm" \
  --trace "$repo_root/results/PROFILE_fit.trace.json" \
  --metrics "$repo_root/results/PROFILE_fit.metrics.prom" \
  --profile 2> "$repo_root/results/PROFILE_fit.profile.txt"

"$acbm" pack \
  --model "$work/model.acbm" --out "$work/model.armm" \
  --trace "$repo_root/results/PROFILE_pack.trace.json" \
  --metrics "$repo_root/results/PROFILE_pack.metrics.prom" \
  --profile 2> "$repo_root/results/PROFILE_pack.profile.txt"

for cmd in fit pack; do
  cat "$repo_root/results/PROFILE_$cmd.profile.txt"
  echo
done
for cmd in fit pack; do
  echo "wrote results/PROFILE_$cmd.trace.json"
  echo "      results/PROFILE_$cmd.metrics.prom"
  echo "      results/PROFILE_$cmd.profile.txt"
done
