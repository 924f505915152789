#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload sim-stabilize --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and binary stay under .bench_build, so
# the benchmark writes nothing outside the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
