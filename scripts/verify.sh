#!/bin/sh
# verify.sh — full local verification: build, vet, unit tests, and the
# race-enabled suite. This is what CI runs and what `make verify`
# invokes; keep it dependency-free (POSIX sh + the Go toolchain).
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> mining parity smoke (exact vs serial reference, blocked vs exact, word2vec kernel vs reference)"
go test -count=1 \
	-run '^(TestClusterParityNaiveVsCached|TestOneBlockSweepKeepsNearTieHeights|TestClusterParityBlockedVsExact|TestIncrementalConvergesToBatch|TestSGNSUpdateMatchesReference|TestTrainingMatchesReference)$' \
	./internal/core/ ./internal/textmine/

echo "==> parallel-pump parity smoke (serial vs parallel, small n)"
go test -run '^TestSerialParallelParity$/^seed11$' -count=1 ./internal/crawler/

# bench_check subsumes the old bench smokes: it runs the same cheap
# slices (mining n=200, crawl n=50, 1x) and additionally gates them
# against the committed BENCH_*.json baselines.
sh scripts/bench_check.sh

sh scripts/telemetry_smoke.sh

echo "verify: OK"
