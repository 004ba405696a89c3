#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source into
# the checkout's own build directory, then run it. Everything the build
# and the run write — Go's caches included — stays inside the checkout.
# Run it from the repository root:
#
#   bash bench/run.sh --workload fct_hadoop --seed 7 --seconds 15 --trace 0
set -euo pipefail

[ -f go.mod ] || { echo "bench/run.sh: no go.mod here; run it from the root of a full checkout" >&2; exit 1; }

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
