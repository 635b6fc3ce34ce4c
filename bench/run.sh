#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash bench/run.sh --workload adaptive-bus4-s8 --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live in .bench_build/ under the current
# directory; nothing is fetched, so the build fails (and nothing is printed
# on stdout) unless the simulator's sources are present.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$out/mgpubench" .) >&2
exec "$out/mgpubench" "$@"
