#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# like the Go build cache it uses) and runs it with the arguments given.
# BENCHMARK.json names this script as the benchmark's command; run it from
# the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/seculator-benchmark" ./benchmark
exec "$build/seculator-benchmark" "$@"
