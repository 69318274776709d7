#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload workflow|serve|tournament --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# (Go caches, temporary files, inputs, the binary) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOTELEMETRY=off

go build -C "$root/perfbench" -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
