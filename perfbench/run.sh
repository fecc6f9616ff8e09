#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fig14-exact --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# traces) goes under .bench_build in the current directory.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
