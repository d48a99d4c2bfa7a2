#!/usr/bin/env bash
# Profiles the quickstart build with the observability layer on: builds the
# CLI, generates a small simulated world, and runs `acbm fit`, then
# `acbm pack`, then one hourly `acbm ingest --snapshot` on an ingest
# directory initialised on that world, each with --trace, --metrics, and
# --profile. Artifacts land under results/, one set per command
# (<cmd> = fit, pack, ingest):
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

# One ingest hour: a one-attack family-0 snapshot just past the 30-day
# window, appended to a directory initialised (unprofiled) on the world.
ws="$(grep -m1 '^#window_start=' "$work/trace.csv" | cut -d= -f2)"
fams="$(grep -m1 '^#families=' "$work/trace.csv" | cut -d= -f2)"
hour=721
{
  echo "#window_start=$ws"
  echo "#families=$fams"
  echo "id,family,target_ip,target_asn,start,duration_s,bots"
  echo "990$hour,0,10.0.0.1,3,$((ws + hour * 3600 + 60)),600,10.9.0.1;10.9.0.2;10.9.0.3"
} > "$work/snap.csv"
"$acbm" ingest --dir "$work/ingest" --init \
  --dataset "$work/trace.csv" --ipmap "$work/ipmap.txt" >/dev/null
"$acbm" ingest --dir "$work/ingest" --snapshot "$work/snap.csv" --hour "$hour" \
  --trace "$repo_root/results/PROFILE_ingest.trace.json" \
  --metrics "$repo_root/results/PROFILE_ingest.metrics.prom" \
  --profile 2> "$repo_root/results/PROFILE_ingest.profile.txt"

for cmd in fit pack ingest; do
  cat "$repo_root/results/PROFILE_$cmd.profile.txt"
  echo
done
for cmd in fit pack ingest; do
  echo "wrote results/PROFILE_$cmd.trace.json"
  echo "      results/PROFILE_$cmd.metrics.prom"
  echo "      results/PROFILE_$cmd.profile.txt"
done
