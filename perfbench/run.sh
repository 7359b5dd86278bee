#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload legacy-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, temporary
# files, the binary) stays under .bench_build in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
bin="$out/perfbench"
(cd perfbench && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
