#!/usr/bin/env bash
# Builds the benchmark from the checkout this is run in and runs it with the
# arguments given. Everything the build writes, the Go build cache included,
# stays under .bench_build in that checkout, and nothing is downloaded.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/streambench" ./bench
exec "$build/streambench" "$@"
