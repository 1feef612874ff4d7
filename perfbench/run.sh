#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload archive --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache and the binary stay under
# the build directory (CARGO_TARGET_DIR when set, else .bench_build), so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -out "$build" "$@"
