#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] ...
#
# Run it from the repository root. The build cache, the binary and the Go
# tool's own state all stay under .bench_build/ in that directory; the
# build uses the installed toolchain and no network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= CGO_ENABLED=0
(cd bench && go build -o "$out/cellpilot-bench" .)
exec "$out/cellpilot-bench" "$@"
