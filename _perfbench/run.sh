#!/usr/bin/env bash
# Builds the benchmark and graphd from source, then runs one workload:
#
#   bash _perfbench/run.sh --workload study|serve|ingest --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root; the per-run scratch directory is removed
# on exit.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

# Keep the toolchain's caches, config and telemetry inside the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" GOENV=off
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off CGO_ENABLED=0

go -C _perfbench build -o "$out/perfbench" .
go build -o "$out/graphd" ./cmd/graphd

work=$(mktemp -d "$out/work.XXXXXX")
trap 'rm -rf "$work"' EXIT
status=0
"$out/perfbench" -graphd "$out/graphd" -workdir "$work" "$@" || status=$?
exit "$status"
