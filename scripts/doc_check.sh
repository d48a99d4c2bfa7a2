#!/usr/bin/env bash
# Doc lint (wired as the `doc_check` ctest): keeps the user-facing docs and
# the CLI from drifting apart.
#
#   1. Every `--flag` token in README.md / SCENARIOS.md / DESIGN.md /
#      OBSERVABILITY.md names a real acbm flag (present in `acbm help`).
#      Flags of foreign tools that the docs quote in command examples
#      (cmake/ctest/bench harnesses) live in the allowlist below.
#   2. Every scenario listed by `acbm generate --list-scenarios` has a
#      section in SCENARIOS.md, and every --scenario-param key it prints is
#      documented there too.
#
# Usage: scripts/doc_check.sh <path-to-acbm-binary>
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: doc_check.sh <path-to-acbm-binary>" >&2
  exit 2
fi
acbm="$1"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# Flags that appear in doc command examples but belong to other tools
# (cmake --build, ctest --test-dir, the bench harnesses' --repeat/--tiny).
allowlist='--build --test-dir --output-on-failure --repeat --tiny --sha --cpu --print-isa'

help_text="$("$acbm" help)"
listing="$("$acbm" generate --list-scenarios)"
failures=0

for doc in README.md SCENARIOS.md DESIGN.md OBSERVABILITY.md; do
  path="$repo_root/$doc"
  if [[ ! -f "$path" ]]; then
    echo "doc_check: MISSING $doc" >&2
    failures=$((failures + 1))
    continue
  fi
  for flag in $(grep -ohE -- '--[a-z][a-z0-9_-]*' "$path" | sort -u); do
    if [[ " $allowlist " == *" $flag "* ]]; then
      continue
    fi
    if ! grep -qF -- "$flag" <<<"$help_text"; then
      echo "doc_check: $doc mentions $flag but 'acbm help' does not" >&2
      failures=$((failures + 1))
    fi
  done
done

scenarios_md="$(cat "$repo_root/SCENARIOS.md" 2>/dev/null || true)"
for name in $(grep -oE '^  [a-z0-9-]+ ' <<<"$listing" | tr -d ' '); do
  if ! grep -qF -- "$name" <<<"$scenarios_md"; then
    echo "doc_check: scenario '$name' (from --list-scenarios) is not" \
         "documented in SCENARIOS.md" >&2
    failures=$((failures + 1))
  fi
done
for key in $(grep -oE '^    --scenario-param [a-z-]+' <<<"$listing" |
             awk '{print $2}' | sort -u); do
  if ! grep -qF -- "$key" <<<"$scenarios_md"; then
    echo "doc_check: --scenario-param '$key' (from --list-scenarios) is not" \
         "documented in SCENARIOS.md" >&2
    failures=$((failures + 1))
  fi
done

if [[ "$failures" -gt 0 ]]; then
  echo "doc_check: $failures problem(s)" >&2
  exit 1
fi
echo "doc_check: README.md, SCENARIOS.md, DESIGN.md and OBSERVABILITY.md" \
     "agree with the CLI"
