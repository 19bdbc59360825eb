# Developer entry points. The repo is plain Go; everything below is a
# thin wrapper over the toolchain so CI and local runs stay identical.

GO ?= go

.PHONY: build test race vet verify bench bench-crawl bench-check telemetry-smoke mining-smoke profile-mining

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# verify runs the whole gate: build, vet, tests, race tests.
verify:
	sh scripts/verify.sh

# bench runs the mining benchmark suite and writes BENCH_mining.json.
bench:
	sh scripts/bench.sh

# bench-crawl runs the crawl benchmark suite (serial vs parallel
# monitor phase + end-to-end study) and writes BENCH_crawl.json.
bench-crawl:
	SUITE=crawl sh scripts/bench.sh

# bench-check re-runs a cheap slice of both benchmark suites and gates
# ns/op against the committed BENCH_*.json baselines (BENCH_TOL=4.0x).
bench-check:
	sh scripts/bench_check.sh

# telemetry-smoke runs the same seeded chaos crawl+mine as a one-shard
# and a 4-shard fleet under worker kills and requires byte-identical
# output, then reruns a blocked mine for ledger byte-stability; it
# scrapes the live /fleetz and /miningz views and checks the snapshots
# against the golden key-sets.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# mining-smoke runs the exact route's bit-parity gate against the serial
# reference sweep (3 seeds × 3 linkages, plus a near-tied one-block
# sweep), the blocked-vs-exact parity matrix, the
# incremental-converges-to-batch checks and the linkage property test —
# the gates behind both mining routes and their shared cut step — plus
# the word2vec kernel's bit-parity gate against its per-target reference.
mining-smoke:
	$(GO) test -count=1 \
		-run '^(TestClusterParityNaiveVsCached|TestOneBlockSweepKeepsNearTieHeights|TestClusterParityBlockedVsExact|TestBlockedComponentsPartition|TestBlockedFixedCutHeight|TestIncrementalConvergesToBatch|TestIncrementalLinkageVariants|TestSweepMemoParityMatrix|TestBlockedFullSweepOptionParity|TestMedoidIndexRoundTrip|TestLinkageDendrogramProperties|TestSGNSUpdateMatchesReference|TestTrainingMatchesReference)$$' \
		./internal/core/ ./internal/cluster/ ./internal/textmine/

# profile-mining captures CPU/heap pprof profiles of the n=50k blocked
# clustering benchmark plus its sweep_ns cut-sweep attribution, under
# PROFILE_DIR (never clobbers the committed BENCH_mining.json).
profile-mining:
	sh scripts/profile_mining.sh
