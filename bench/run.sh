#!/usr/bin/env bash
# Builds the benchmark and the server it drives from the checkout's own
# source into .bench_build/ (build cache included, so nothing outside the
# checkout is written), then runs the benchmark from the checkout root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$build/bin"
go build -o "$build/bin/memcachedsim" ./cmd/memcachedsim
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" -server-bin "$build/bin/memcachedsim" "$@"
