#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): build the benchmark from
# source inside the checkout, then run it with the driver's arguments.
# Everything the build and the run write — Go's build cache, temporary and
# configuration directories included — stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C "$root/benchmark" build -o "$build/benchmark" .
exec "$build/benchmark" -scratch "$build/data" "$@"
