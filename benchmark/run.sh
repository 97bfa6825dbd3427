#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the
# repository root. Everything the build writes (Go's build and module
# caches included) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$here" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
