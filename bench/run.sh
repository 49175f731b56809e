#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it. Run from the root of the checkout:
#
#   bash bench/run.sh --workload dag_stencil --seed 1 --seconds 30 --trace 0
#
# Everything the go tool writes (build cache, telemetry) is kept inside
# the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build/bench"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go build -C "$here" -o "$out/taskbench-bench" .
exec "$out/taskbench-bench" "$@"
