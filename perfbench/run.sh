#!/usr/bin/env bash
# Builds flosd and the benchmark program from this checkout, then runs the
# program with the given arguments:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 24 --trace 0
#
# Run it from the root of the checkout. Every build product, generated input
# and log stays under .bench_build/ in the checkout; the Go build cache and
# config are pointed there too, so the run writes nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp" "$build/goconfig"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/goconfig" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	GOWORK=off GOPROXY=off

go build -o "$build/bin/flosd" ./cmd/flosd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -flosd "$build/bin/flosd" -work "$build/perfbench" "$@"
