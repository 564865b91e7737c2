#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark binary from the
# checkout's sources and runs it with the driver's arguments. Every byte the
# toolchain and the benchmark write stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
(
  cd "$here"
  GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=readonly \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
    go build -o "$build/gfdbenchmark" .
)
cd "$root"
exec "$build/gfdbenchmark" "$@"
