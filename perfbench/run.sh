#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload fit-grid --seed 1 --seconds 24 --trace 0
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
