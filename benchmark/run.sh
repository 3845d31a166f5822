#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the benchmark from
# source into <checkout>/.bench_build (Go's build cache and temp files
# included, so nothing is written outside the checkout) and runs it with the
# driver's arguments. For interactive use, `go run -C benchmark . [flags]`
# does the same with the user's own build cache.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/dilos-benchmark" .)
exec "$build/dilos-benchmark" "$@"
