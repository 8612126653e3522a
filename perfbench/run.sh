#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments pass through.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch stores stay under
# .bench_build/perfbench, so a run reads and writes only inside the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
out=.bench_build/perfbench
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" TMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --out "$out" "$@"
