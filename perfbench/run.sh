#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the WAL stores of the
# cluster workload and the traced run's span dumps.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The go command's own state (module cache, config and telemetry files)
# stays under the build directory too.
(cd "$here" && GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
