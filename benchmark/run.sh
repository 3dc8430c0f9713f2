#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload daily --seed 0 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary,
# checkpoints and results.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C "$root/benchmark" build -o "$out/expansebench.new" .
mv -f "$out/expansebench.new" "$out/expansebench"
exec "$out/expansebench" "$@"
