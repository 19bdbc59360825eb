#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload study --seed 11 --seconds 30 --trace 0
#   bash bench/run.sh -workloads all -seed 11 -reps 5 -out .bench_build/suite
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary, and trace files.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/pushadminer-bench" .)
exec "$build/pushadminer-bench" "$@"
