#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash mlcrbench/run.sh --workload serve-mlcr --seed 1 --seconds 20 --trace 0
#
# Every build and cache file goes under .bench_build/ in the current
# directory. Without the repository's go.mod one directory up (a copy of
# the benchmark alone) the build fails and no result is printed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOTELEMETRY=off

(cd "$(dirname "$0")" && go build -o "$build/mlcrbench" .)
exec "$build/mlcrbench" "$@"
