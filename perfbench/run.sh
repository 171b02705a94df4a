#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Every build artefact, cache and temporary file stays under
# .bench_build/ in the directory it is started from (the checkout root):
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
