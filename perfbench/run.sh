#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# The binary and every file the Go toolchain writes go under .bench_build/
# in the repository root, and nothing is fetched: the benchmark's only
# dependency is the simulator module one directory up.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/home"
(
	cd perfbench
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
