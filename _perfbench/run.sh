#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; arguments
# pass through (--workload, --seed, --seconds, --trace). Run it from the
# root of the checkout. Every build and run artifact stays under
# .bench_build: the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
