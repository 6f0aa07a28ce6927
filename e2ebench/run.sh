#!/usr/bin/env bash
# Builds kvnode and the e2ebench harness from this checkout, then runs the
# harness with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload write-cross --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and per-run WALs stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/kvnode || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/kvnode and e2ebench/ must exist)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR"
go build -o "$build/kvnode" ./cmd/kvnode
(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -kvnode "$build/kvnode" -workdir "$build/runs" "$@"
