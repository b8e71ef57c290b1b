#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.  Run
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload deep-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the checkout: the Go build cache, the binary, stores and traces.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
