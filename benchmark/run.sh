#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root. The Go build and module caches are pinned inside
# the checkout so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/parapre-benchmark" .)
cd "$root"
exec "$build/parapre-benchmark" "$@"
