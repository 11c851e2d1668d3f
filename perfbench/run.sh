#!/usr/bin/env bash
# Builds the benchmark and zeroedd from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, and per-run reports, traces
# and server logs (.bench_build/out). The last line of stdout is the JSON
# result; see perfbench/README.md.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/out"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

# Both binaries are built the same way, with the checked-in PGO profile
# when the checkout has one, so the parent and a change compare like for like.
pgo=off
pgo_name=none
if [[ -f "$root/default.pgo" ]]; then
	pgo="$root/default.pgo"
	pgo_name=default.pgo
fi

go build -C "$root" -pgo="$pgo" -o "$build/bin/zeroedd" ./cmd/zeroedd >&2
go build -C "$root/perfbench" -pgo="$pgo" -o "$build/bin/perfbench" . >&2

exec "$build/bin/perfbench" -zeroedd "$build/bin/zeroedd" -out "$build/out" -pgo "$pgo_name" "$@"
