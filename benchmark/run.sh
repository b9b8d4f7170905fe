#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it. Everything the Go toolchain writes (build cache, temporary files,
# telemetry counters) is kept under .bench_build in the checkout, so a run
# reads and writes nothing outside it.
#
#   bash benchmark/run.sh --workload fetch --seed 7 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here; the benchmark is built from the repository's module" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/hlperf" ./benchmark
exec "$build/hlperf" "$@"
