#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given flags, e.g.
#
#   bash bench/run.sh --workload play --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache,
# binary, summary stores) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false
(cd bench && go build -o "$out/flowdroid-bench" .)
exec "$out/flowdroid-bench" "$@"
