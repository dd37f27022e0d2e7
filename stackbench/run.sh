#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout of the repository:
#
#   bash stackbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
#   bash stackbench/run.sh spread --workload serve --repeat 10 --seconds 20
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the runs' scratch files.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/stackbench" && go build -trimpath -buildvcs=false -o "$out/stackbench" .)
exec "$out/stackbench" "$@"
