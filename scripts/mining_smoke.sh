#!/bin/sh
# mining_smoke.sh — the mining parity gates, uncached, in one list that
# both `make mining-smoke` and scripts/verify.sh run:
#  - the exact route's bit-parity gate against the serial reference
#    sweep (3 seeds × 3 linkages, plus a near-tied one-block sweep);
#  - the silhouette scorer against the serial definition, bit for bit,
#    on both of its paths (random, tie-heavy and mostly-singleton cells,
#    and the exact route's fixed cuts), and its per-worker scratch reused
#    dirty without regrowing;
#  - the blocked-vs-exact parity matrix, the fixed cut height and the
#    sweep memo's parity matrix;
#  - the cut step's tail (stitched labels, clusters with their domain
#    lists) and the stream's medoids against their map-based
#    references;
#  - the distances and their path bound against the from-scratch
#    reference, the banded candidate lookup against its brute-force
#    definition, the blocks against a serial reference union-find at
#    1–3 union workers, and the union phase's run-to-run count
#    determinism;
#  - the incremental-converges-to-batch checks, Add's provisional
#    labels against a brute-force transcription of its nearest-medoid
#    rule, the Recluster's copied distances against fresh fills above
#    the crossover, the dendrogram cut against its map-based reference
#    and the linkage property test — the gates behind both mining
#    routes and their shared cut step;
#  - the word2vec kernel's bit-parity gate against its per-target
#    reference.
# A listed name that is not a test fails the smoke, naming it
# (scripts/gotest_run.sh checks each with `go test -list`, where a bare
# `go test -run` would pass). Dependency-free: POSIX sh + the Go
# toolchain.
#
#   sh scripts/mining_smoke.sh
set -eu

cd "$(dirname "$0")/.."

GO="${GO:-go}" sh scripts/gotest_run.sh '
	TestClusterParityNaiveVsCached
	TestOneBlockSweepKeepsNearTieHeights
	TestSilhouetteMatchesSerialBitForBit
	TestExactFixedCutSilhouetteMatchesSerial
	TestSilhouetteAccumulatorReuse
	TestClusterParityBlockedVsExact
	TestDistanceMatchesNaiveBitForBit
	TestAppendCandidatesMatchesReference
	TestBlockedComponentsPartition
	TestBlockedUnionCountsDeterministic
	TestBlockedFixedCutHeight
	TestClusterDerivationMatchesMapOracle
	TestIncrementalConvergesToBatch
	TestIncrementalLinkageVariants
	TestReclusterReusesAbsorbedDistances
	TestCutByHeightMatchesMapReference
	TestSweepMemoParityMatrix
	TestBlockedFullSweepOptionParity
	TestProvisionalLabelMatchesOracle
	TestLinkageDendrogramProperties
	TestSGNSUpdateMatchesReference
	TestTrainingMatchesReference
' ./internal/core/ ./internal/cluster/ ./internal/simhash/ ./internal/textmine/
