#!/usr/bin/env bash
# Regenerate the checked-in PGO profile (default.pgo) from one
# default-config ZeroED run on Tax(3000), seed 1: the fit, which takes
# most of the run, plus the scoring pass over the same table.
# Run from anywhere; writes default.pgo at the repo root and prints the
# hottest functions so a stale or empty profile is obvious at a glance.
#
# CI's pgo job builds every package with -pgo=default.pgo and fails if the
# profile no longer parses or no longer names the current hot kernels, so
# re-run this script whenever the fit path's hot functions move.
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/zeroed -dataset Tax -size 3000 -seed 1 -cpuprofile default.pgo

# Sanity: the profile must parse and must still mention the training
# kernel that PGO exists to speed up (the AVX2 multiply-accumulate body).
go tool pprof -top -nodecount=8 default.pgo
go tool pprof -top -nodecount=200 default.pgo | grep -q 'accumAVX2' \
  || { echo "fitprofile: profile looks stale — accumAVX2 not among samples"; exit 1; }

echo "fitprofile: wrote default.pgo"
