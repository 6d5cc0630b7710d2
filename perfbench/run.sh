#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare <base-results-dir> <head-results-dir>
# Build outputs and scratch files stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOTMPDIR="$out/go-tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -scratch "$out" "$@"
