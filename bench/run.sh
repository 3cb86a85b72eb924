#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from source into
# .bench_build/ of the checkout (build cache included, so nothing is
# written outside it) and runs it with the driver's arguments:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
