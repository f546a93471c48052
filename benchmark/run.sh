#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run from the repository root, e.g.
#   bash benchmark/run.sh -workload ring-serial -seed 1 -seconds 20
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off

(cd "$root/benchmark" && go build -o "$out/gputn-benchmark" .)
exec "$out/gputn-benchmark" "$@"
