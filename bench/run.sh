#!/bin/bash
# Entry point of the repository benchmark (the "command" of BENCHMARK.json).
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
#
# Builds ./bench (a module of its own next to the repository's) into
# .bench_build/ and runs it. Everything written — the Go build cache, the
# binary, ingest store directories — stays inside the checkout; traces go
# to bench/out/. Nothing is downloaded: the benchmark imports the
# repository's packages and the standard library only.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
