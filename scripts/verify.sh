#!/bin/sh
# verify.sh — full local verification: build, format check, vet, unit
# tests, and the race-enabled suite. This is what CI runs and what
# `make verify` invokes; keep it dependency-free (POSIX sh + the Go
# toolchain). Its named test gates run through scripts/gotest_run.sh,
# which fails on a name that matches no test.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l . (every Go file, bench/ included, must be gofmt-ed)"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> mining parity smoke (exact vs serial reference, blocked vs exact, distances and blocks vs reference, provisional labels vs oracle, word2vec kernel vs reference)"
sh scripts/mining_smoke.sh

echo "==> crawl parity smoke (serial vs parallel pump, small n; pooled vs fresh connections under faults that kill none; push outage retries wait no real time)"
sh scripts/gotest_run.sh TestSerialParallelParity/seed11 ./internal/crawler/
sh scripts/gotest_run.sh TestConnectionReuseInvisible ./internal/crawler/
sh scripts/gotest_run.sh TestOutageFlushCostsNoWallTime ./internal/webeco/

# The benchmark is its own module, so the root `go test ./...` never
# descends into it.
echo "==> benchmark module (bench/: vet + tests)"
(cd bench && go vet ./... && go test ./...)

echo "==> work-count gate (blocked batch, incremental stream, desktop study with and without faults: exact work counts vs the table in workcounts_test.go)"
sh scripts/gotest_run.sh TestWorkCounts .

sh scripts/telemetry_smoke.sh

echo "verify: OK"
