#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, where --compare finds BENCHMARK.json:
#
#   bash bench/run.sh --workload paper50-glr --seed 1 --seconds 15 --trace 0
#
# Every build artifact, the Go build cache and the Go toolchain's own
# state files go under bench/.bench_build/, next to this script, so the
# benchmark reads and writes nothing outside the checkout it runs in.
set -euo pipefail

dir=$(cd "$(dirname "$0")" && pwd)
out="$dir/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd "$dir" && go build -o "$out/glrbench" .)
exec "$out/glrbench" "$@"
