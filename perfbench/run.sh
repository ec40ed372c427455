#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#   bash perfbench/run.sh --workload train-moe --seed 1 --seconds 25 --trace 0
# Run from the repository root. Build outputs and the Go build cache
# stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" --commit "$commit" "$@"
