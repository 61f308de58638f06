#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root. Every build artifact, cache and temporary file
# stays under .bench_build/ so a run writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go -C "$root/benchmark" build -o "$build/mugi-benchmark" .
cd "$root"
exec "$build/mugi-benchmark" "$@"
