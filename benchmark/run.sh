#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout:
#   bash benchmark/run.sh --workload lookup-short --seed 1 --seconds 12 --trace 0
# Everything the build writes (binary, Go build cache) stays in .bench_build/
# inside the checkout; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
cd "$root"
go build -C benchmark -o "$build/uabench" .
exec "$build/uabench" "$@"
