#!/usr/bin/env bash
# Builds scale-serve, scale-shard and the benchmark program from the checkout
# in the current directory, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload infer-small --seed 1 --seconds 20 --trace 0
#
# Everything it writes (binaries, the Go build cache, span dumps) lands in
# .bench_build/perfbench under the current directory.
set -euo pipefail

# The program is built from this checkout; without it there is nothing to run.
for f in go.mod cmd/scale-serve cmd/scale-shard; do
	[ -e "$f" ] || { echo "run.sh: $f not found; run from the root of a checkout" >&2; exit 2; }
done

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# The go command otherwise starts a detached telemetry process that can
# outlive this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/scale-serve" ./cmd/scale-serve
go build -o "$out/bin/scale-shard" ./cmd/scale-shard
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --bin "$out/bin" --out "$out" "$@"
