#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (next to bench/) and
# runs it with the given arguments. Everything go writes — build cache,
# module cache, binary — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
export MARIO_BENCH_DIR="$here"
export MARIO_BENCH_COMMIT="${MARIO_BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
(cd "$here" && go build -o "$build/mario-bench" .)
exec "$build/mario-bench" "$@"
