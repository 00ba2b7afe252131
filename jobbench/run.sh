#!/usr/bin/env bash
# Builds the job benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the root of the repository:
#
#   bash jobbench/run.sh --workload cg-partial --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run leave behind stays under .bench_build
# in the current directory: the Go build cache, the binary, the socket
# directories of the cg-socket workload, and the span dump of a traced run.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
# HOME and XDG_CONFIG_HOME keep the toolchain's own config and telemetry
# writes inside the checkout too.
(cd "$root/jobbench" &&
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly \
		go build -o "$out/jobbench" .)
# Relative, so the unix socket paths stay short wherever the checkout is.
TMPDIR=.bench_build/tmp exec "$out/jobbench" "$@"
