#!/usr/bin/env bash
# Builds the benchmark from source and runs it.  Run from the repository
# root:
#
#   bash benchmark/run.sh --workload tpcc-flash --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the kv-serve database files all go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off \
	go -C "$here" build -o "$out/facebenchmark" .
exec "$out/facebenchmark" -work "$out/work" "$@"
