#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload paper-exact --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry, the binary) stays under .bench_build/ in the current
# directory, and nothing is fetched from the network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
