#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash optbench/run.sh --workload solve-cheap --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "optbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/optbench" ./optbench
exec "$out/optbench" --workdir "$out" "$@"
