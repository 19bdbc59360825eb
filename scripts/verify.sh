#!/bin/sh
# verify.sh — full local verification: build, format check, vet, unit
# tests, and the race-enabled suite. This is what CI runs and what
# `make verify` invokes; keep it dependency-free (POSIX sh + the Go
# toolchain).
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

echo "==> mining parity smoke (exact vs serial reference, blocked vs exact, distances and blocks vs reference, word2vec kernel vs reference)"
sh scripts/mining_smoke.sh

echo "==> crawl parity smoke (serial vs parallel pump, small n; pooled vs fresh connections under faults that kill none; push outage retries wait no real time)"
go test -run '^TestSerialParallelParity$/^seed11$' -count=1 ./internal/crawler/
go test -run '^TestConnectionReuseInvisible$' -count=1 ./internal/crawler/
go test -run '^TestOutageFlushCostsNoWallTime$' -count=1 ./internal/webeco/

# The benchmark is its own module, so the root `go test ./...` never
# descends into it.
echo "==> benchmark module (bench/: vet + tests)"
(cd bench && go vet ./... && go test ./...)

echo "==> work-count gate (blocked batch, incremental stream, desktop study with and without faults: exact work counts vs the table in workcounts_test.go)"
go test -run '^TestWorkCounts$' -count=1 .

sh scripts/telemetry_smoke.sh

echo "verify: OK"
