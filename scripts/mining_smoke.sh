#!/bin/sh
# mining_smoke.sh — the mining parity gates, uncached, in one list that
# both `make mining-smoke` and scripts/verify.sh run:
#  - the exact route's bit-parity gate against the serial reference
#    sweep (3 seeds × 3 linkages, plus a near-tied one-block sweep);
#  - the silhouette scorer against the serial definition, bit for bit,
#    on both of its paths (random, tie-heavy and mostly-singleton cells,
#    and the exact route's fixed cuts), and its per-worker scratch reused
#    dirty without regrowing;
#  - the blocked-vs-exact parity matrix, the fixed cut height, the sweep
#    memo's parity matrix and the medoid index round trip;
#  - the cut step's tail (stitched labels, clusters with their domain
#    lists, medoids and the medoid index) against its map-based
#    reference;
#  - the distances and their path bound against the from-scratch
#    reference, the banded candidate lookup against its brute-force
#    definition, the blocks against a serial reference union-find at
#    1–3 union workers, and the union phase's run-to-run count
#    determinism;
#  - the incremental-converges-to-batch checks, the Recluster's copied
#    distances against fresh fills above the crossover, the dendrogram
#    cut against its map-based reference and the linkage property test
#    — the gates behind both mining routes and their shared cut step;
#  - the word2vec kernel's bit-parity gate against its per-target
#    reference.
# Dependency-free: POSIX sh + the Go toolchain.
#
#   sh scripts/mining_smoke.sh
set -eu

cd "$(dirname "$0")/.."

GO="${GO:-go}"

"$GO" test -count=1 \
	-run '^(TestClusterParityNaiveVsCached|TestOneBlockSweepKeepsNearTieHeights|TestSilhouetteMatchesSerialBitForBit|TestExactFixedCutSilhouetteMatchesSerial|TestSilhouetteAccumulatorReuse|TestClusterParityBlockedVsExact|TestDistanceMatchesNaiveBitForBit|TestAppendCandidatesMatchesReference|TestBlockedComponentsPartition|TestBlockedUnionCountsDeterministic|TestBlockedFixedCutHeight|TestClusterDerivationMatchesMapOracle|TestIncrementalConvergesToBatch|TestIncrementalLinkageVariants|TestReclusterReusesAbsorbedDistances|TestCutByHeightMatchesMapReference|TestSweepMemoParityMatrix|TestBlockedFullSweepOptionParity|TestMedoidIndexRoundTrip|TestLinkageDendrogramProperties|TestSGNSUpdateMatchesReference|TestTrainingMatchesReference)$' \
	./internal/core/ ./internal/cluster/ ./internal/simhash/ ./internal/textmine/
