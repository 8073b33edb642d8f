#!/usr/bin/env bash
# Builds osnd, experiments and the benchmark from source into .bench_build,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and generated world stays under
# .bench_build; build output goes to standard error, so the last line of
# standard output is the benchmark's result.
set -euo pipefail

build="$(pwd)/.bench_build"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
mkdir -p "$build/bin"
go build -o "$build/bin/" ./cmd/osnd ./cmd/experiments >&2
go -C perfbench build -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" --bin "$build/bin" --work "$build" "$@"
