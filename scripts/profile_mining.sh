#!/bin/sh
# profile_mining.sh — capture CPU and heap pprof profiles of the
# large-n blocked clustering benchmark (BenchmarkClusterWPNsBlockedLarge,
# n=50k) and print its cut-sweep attribution: the sweep's summed worker
# time per candidate-height bucket (sweep_<bucket>-ns/op). The parallel
# pass's workers each add their rescore times, so the buckets can add up
# to more than the cut stage's wall time. Writes the profiles
# and the test binary under PROFILE_DIR (default
# /tmp/pushadminer-mining-prof). Dependency-free: POSIX sh + the Go
# toolchain.
#
#   sh scripts/profile_mining.sh
#   PROFILE_DIR=/tmp/prof BENCHTIME=3x sh scripts/profile_mining.sh
#
# Inspect afterwards with:
#
#   go tool pprof PROFILE_DIR/bench.test PROFILE_DIR/cpu.pprof
#   go tool pprof PROFILE_DIR/bench.test PROFILE_DIR/mem.pprof
set -eu

cd "$(dirname "$0")/.."

DIR="${PROFILE_DIR:-/tmp/pushadminer-mining-prof}"
BENCHTIME="${BENCHTIME:-1x}"
mkdir -p "$DIR"

echo "==> profiling BenchmarkClusterWPNsBlockedLarge (n=50k, $BENCHTIME) into $DIR"
go test -run '^$' -bench '^BenchmarkClusterWPNsBlockedLarge$' \
	-benchtime "$BENCHTIME" -timeout 60m \
	-cpuprofile "$DIR/cpu.pprof" -memprofile "$DIR/mem.pprof" \
	-o "$DIR/bench.test" . | tee "$DIR/bench.txt"

echo "==> cut-sweep attribution (sweep_ns by height bucket)"
grep -o '[0-9.e+]* sweep_[^ ]*-ns/op' "$DIR/bench.txt" | sed 's/^/    /' ||
	echo "    (no sweep buckets — did the sweep run?)" >&2

echo "==> top CPU consumers"
go tool pprof -top -nodecount=12 "$DIR/bench.test" "$DIR/cpu.pprof" | sed 's/^/    /'

echo "==> top heap allocators"
go tool pprof -top -nodecount=12 -sample_index=alloc_space \
	"$DIR/bench.test" "$DIR/mem.pprof" | sed 's/^/    /'

echo "profile: wrote $DIR/cpu.pprof, $DIR/mem.pprof, $DIR/bench.txt"
