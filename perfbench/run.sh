#!/usr/bin/env bash
# Builds the perfbench harness from source and runs it. Run it from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload fine-shards --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain would write (build cache, module cache,
# config) stays under the build directory: $CARGO_TARGET_DIR when set,
# otherwise .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

bin=$out/perfbench-bin
go build -C "$root/perfbench" -o "$bin" .
exec "$bin" --work "$out/perfbench" "$@"
