#!/bin/bash
# What BENCHMARK.json runs: build the bench from source into .bench_build
# under the current directory (the root of a checkout), then run it with
# the arguments given. Nothing is read or written outside the checkout:
# the Go build cache and temporary files live in .bench_build too.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
