#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it from the
# checkout root. Build cache, binary, spill runs, span files and the Go
# tool's own config and telemetry all stay under .bench_build in the
# checkout.
#
#   bash perfbench/run.sh --workload enc-sym --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$build/perfbench.bin" .
commit=
if [ -e "$root/.git" ]; then commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true); fi
cd "$root"
exec "$build/perfbench.bin" -commit "$commit" "$@"
