#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through and the working directory stays the caller's. This is the
# `command` of BENCHMARK.json:
#
#   bash cmd/bench/run.sh --workload chain_seq --seed 1 --seconds 20 --trace 0
#   bash cmd/bench/run.sh                 # all four workloads, both passes
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
go build -C "$dir" -o "$dir/.bench_build/bench" .
exec "$dir/.bench_build/bench" "$@"
