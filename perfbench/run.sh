#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload write-cold --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The build cache, module cache, Go
# configuration and the binary all live in .bench_build/ under the
# current directory, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
