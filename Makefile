# Developer entry points. The repo is plain Go; everything below is a
# thin wrapper over the toolchain so CI and local runs stay identical.

GO ?= go

.PHONY: build test race vet verify telemetry-smoke mining-smoke profile-mining

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# verify runs the whole gate: build, gofmt, vet, tests, race tests.
verify:
	sh scripts/verify.sh

# telemetry-smoke runs the same seeded chaos crawl+mine as a one-shard
# and a 4-shard fleet under worker kills and requires byte-identical
# output, then reruns a blocked mine for ledger byte-stability; it
# scrapes the live /fleetz and /miningz views and checks the snapshots
# against the golden key-sets.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# mining-smoke runs the mining parity gates (scripts/mining_smoke.sh
# holds the one list, which scripts/verify.sh runs too): exact vs the
# serial reference sweep, the silhouette scorer and its reused scratch
# vs the serial definition, blocked vs exact, the cut step's tail vs its
# map-based reference, distances, candidate lookups and blocks vs their
# references, incremental convergence, the linkage property test and
# the word2vec kernel's bit-parity gate.
mining-smoke:
	GO=$(GO) sh scripts/mining_smoke.sh

# profile-mining captures CPU/heap pprof profiles of the n=50k blocked
# clustering benchmark and prints its cut-sweep attribution, under
# PROFILE_DIR.
profile-mining:
	sh scripts/profile_mining.sh
