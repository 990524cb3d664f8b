#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the benchmark from source inside the
# checkout and runs it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, and the run's temp
# dir (heap files, spill files), which the program removes before it exits.
# In a directory that holds only BENCHMARK.json and bench/ the build fails —
# the module's "replace repro => ../" has nothing to point at — and the
# script exits non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$build/bench" .
exec "$build/bench" -tmp "$build" "$@"
