#!/usr/bin/env bash
# Regenerate the checked-in PGO profile (default.pgo) from the fit-only
# benchmark arm — the scaled Tax fit that dominates the repo's wall-clock.
# Run from anywhere; writes default.pgo at the repo root and prints the
# hottest functions so a stale or empty profile is obvious at a glance.
#
# CI's pgo job builds every package with -pgo=default.pgo and fails if the
# profile no longer parses or no longer names the current hot kernels, so
# re-run this script whenever the fit path's hot functions move.
set -euo pipefail
cd "$(dirname "$0")/.."

ITERS="${1:-2}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go run ./cmd/benchjson -iters "$ITERS" -run 'fit-only' \
  -cpuprofile default.pgo -out "$OUT"

# Sanity: the profile must parse and must still mention the training
# kernel that PGO exists to speed up (the AVX2 multiply-accumulate body).
go tool pprof -top -nodecount=8 default.pgo
go tool pprof -top -nodecount=200 default.pgo | grep -q 'accumAVX2' \
  || { echo "fitprofile: profile looks stale — accumAVX2 not among samples"; exit 1; }

echo "fitprofile: wrote default.pgo"
