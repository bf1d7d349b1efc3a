#!/usr/bin/env bash
# Builds the benchmark and the meshserve binary from this checkout, then runs
# one workload. Run from the repository root:
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/meshserve" ./cmd/meshserve
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -meshserve "$out/meshserve" "$@"
