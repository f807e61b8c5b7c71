#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout it is started from
# and runs it there, so every build output (binary, Go build cache) and every
# file the run writes stays inside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -C "$root/benchmark" -o "$build/x100-benchmark" .
exec "$build/x100-benchmark" "$@"
