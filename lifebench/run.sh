#!/usr/bin/env bash
# Builds the benchmark and cmd/sslserve from this checkout's sources, then
# runs one workload:
#
#   bash lifebench/run.sh --workload fit|serve|ingest --seed N --seconds S --trace 0|1
#
# Must be run from the repository root. Everything the build and the runs
# leave behind (Go build cache, binaries, result and span files) goes under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
mkdir -p "$build/bin" "$build/tmp"
(cd "$root/lifebench" &&
	go build -o "$build/bin/lifebench" . &&
	go build -o "$build/bin/sslserve" repro/cmd/sslserve) >&2
exec "$build/bin/lifebench" -server "$build/bin/sslserve" -out "$build/results" "$@"
