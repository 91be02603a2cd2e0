#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it; every
# argument passes through (see main.go). Run from the repository root:
#
#   bash cepbench/run.sh --workload seq7_keyed --seed 1 --seconds 15 --trace 0
#
# Build cache, temporary files and the binary stay under .bench_build in
# the current directory. Nothing is downloaded: the module's only
# dependency is the repository itself, through a replace directive.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/cepbench" .)
exec "$out/cepbench" "$@"
