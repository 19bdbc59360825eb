package core

import (
	"pushadminer/internal/telemetry"
)

// sweepBucketNames are the mining_sweep_ns family's height-bucket
// labels: candidate cut heights land in 0.1-wide distance buckets
// (soft-cosine distance lives in [0, 1]; anything at or above 1 —
// possible under non-average linkages — pools in "1.0+"). All labels
// are preresolved at obs creation so a snapshot always carries the full
// key set regardless of which heights a given corpus sampled.
var sweepBucketNames = []string{
	"0.0-0.1", "0.1-0.2", "0.2-0.3", "0.3-0.4", "0.4-0.5",
	"0.5-0.6", "0.6-0.7", "0.7-0.8", "0.8-0.9", "0.9-1.0",
	"1.0+",
}

// sweepHeightBucket maps a candidate cut height to its label. Every
// return value is a member of sweepBucketNames: heights at or above 1
// clamp into the top preresolved bucket, negatives into the first, and
// NaN — whose float-to-int conversion is implementation-defined in Go,
// so it must never reach the index expression — also clamps high (the
// !(h < 1) test is true for NaN). A snapshot therefore never carries
// sweep keys outside the preresolved set.
func sweepHeightBucket(h float64) string {
	if !(h < 1) { // h >= 1, or NaN
		return "1.0+"
	}
	if !(h > 0) { // h <= 0 (negative heights never cut anything extra)
		return sweepBucketNames[0]
	}
	if i := int(h * 10); i < len(sweepBucketNames)-1 {
		return sweepBucketNames[i]
	}
	return "1.0+"
}

// mining_pairs phase labels: where each candidate pair of the blocked
// path was decided. blocks_* cover the union phase (gate = Hamming,
// path_rejected = rejected by DistanceWithin's path bound before the
// quad form, dist = full exact-distance confirmation; see
// blockedTally). The dendrogram builds split their within-block pairs:
// block_linkage_exact counts the exact distances computed, and
// block_linkage_reused the pairs a Recluster copied from a cached block
// the rebuilt one absorbed (always 0 on the batch route), so the two
// sum to Σ m(m−1)/2 over the built blocks. sweep_scored counts the
// within-block distance lookups the pooled sweep's silhouette scoring
// re-reads (only pairs in blocks whose labeling changed at that
// height), and sweep_memo_saved is the complement — the per-height
// re-reads the memo skipped, so scored + saved equals what an
// unmemoized sweep would have re-read.
var miningPairPhases = []string{
	"blocks_gate_checked", "blocks_gate_rejected", "blocks_path_rejected",
	"blocks_dist_checked", "blocks_edges",
	"block_linkage_exact", "block_linkage_reused", "sweep_scored", "sweep_memo_saved",
}

// mining_sweep_memo outcome labels — see sweepMemoStats: per
// (candidate × block) sweep-grid cells, hit = served from the per-block
// cut memo, refresh = labeling reused but contribution rescored under a
// new far estimate, miss = cut and scored from scratch.
var sweepMemoOutcomes = []string{"hit", "refresh", "miss"}

// blockedObs bundles the observation sinks of the blocked/incremental
// path and of the cut step both routes share: the sub-stage
// attribution instruments (mining_sweep_ns by height
// bucket, mining_block_size/mining_block_ns histograms, mining_pairs by
// phase), the deterministic ledger, and the live progress status. A nil
// *blockedObs disables everything with no allocation; histograms and
// family counters are atomic, so the parallel block/sweep fan-outs
// observe directly, while ledger events are always flushed from serial
// code in canonical order.
type blockedObs struct {
	led  *telemetry.Ledger
	prog *miningProgress

	sweepFam       *telemetry.Family
	sweepBlocksFam *telemetry.Family
	sweepMemoFam   *telemetry.Family
	blockSize      *telemetry.Histogram
	blockNS        *telemetry.Histogram
	pairsFam       *telemetry.Family
}

// newBlockedObs builds the bundle, or returns nil when every sink is
// off (the zero-alloc disabled path).
func newBlockedObs(reg *telemetry.Registry, led *telemetry.Ledger, prog *miningProgress) *blockedObs {
	if reg == nil && led == nil && prog == nil {
		return nil
	}
	o := &blockedObs{led: led, prog: prog}
	if reg != nil {
		o.sweepFam = reg.Family("mining_sweep_ns", "height_bucket")
		o.sweepBlocksFam = reg.Family("mining_sweep_blocks", "height_bucket")
		for _, b := range sweepBucketNames {
			o.sweepFam.With(b)
			o.sweepBlocksFam.With(b)
		}
		o.sweepMemoFam = reg.Family("mining_sweep_memo", "outcome")
		for _, oc := range sweepMemoOutcomes {
			o.sweepMemoFam.With(oc)
		}
		o.blockSize = reg.Histogram("mining_block_size", telemetry.SizeBuckets)
		o.blockNS = reg.Histogram("mining_block_ns", telemetry.NanosBuckets)
		o.pairsFam = reg.Family("mining_pairs", "phase")
		for _, p := range miningPairPhases {
			o.pairsFam.With(p)
		}
	}
	return o
}

// blockedTally accumulates the union phase's pair decisions with plain
// int64s. Each union worker counts into its own tally (see
// blockedComponents), and the per-worker tallies are summed in worker
// order before being folded into mining_pairs. A pair is counted by the
// worker whose forest tested it, so with several forests a pair
// another forest already connected may be counted again: gateChecked =
// gateRejected + pathRejected + distChecked, and edges is the number of
// unions across all forests — Σ over workers of (n − that forest's
// components) — which is at least the spanning edge count of the merged
// blocks. The groups are dealt to workers in a fixed order, so every
// count is deterministic at a given worker count. A nil *blockedTally
// discards what is added to it.
type blockedTally struct {
	gateChecked  int64 // pairs reaching the edge test (not already unioned)
	gateRejected int64 // rejected by the Hamming gate
	pathRejected int64 // rejected by the path bound, no quad form
	distChecked  int64 // exact distances evaluated for confirmation
	edges        int64 // confirmed union edges
}

// add accumulates u into t; a nil t discards it.
func (t *blockedTally) add(u blockedTally) {
	if t == nil {
		return
	}
	t.gateChecked += u.gateChecked
	t.gateRejected += u.gateRejected
	t.pathRejected += u.pathRejected
	t.distChecked += u.distChecked
	t.edges += u.edges
}

// tally returns the union-phase accumulator, or nil when observation is
// off.
func (o *blockedObs) tally() *blockedTally {
	if o == nil {
		return nil
	}
	return &blockedTally{}
}

// recordTally folds the union-phase tally into mining_pairs.
func (o *blockedObs) recordTally(t *blockedTally) {
	if o == nil || t == nil || o.pairsFam == nil {
		return
	}
	o.pairsFam.Add("blocks_gate_checked", t.gateChecked)
	o.pairsFam.Add("blocks_gate_rejected", t.gateRejected)
	o.pairsFam.Add("blocks_path_rejected", t.pathRejected)
	o.pairsFam.Add("blocks_dist_checked", t.distChecked)
	o.pairsFam.Add("blocks_edges", t.edges)
}

// setBlocksTotal resets the live per-block progress for a build round.
func (o *blockedObs) setBlocksTotal(n int) {
	if o == nil {
		return
	}
	o.prog.setBlocks(n)
}

// blockBuilt observes one block dendrogram build (called from inside
// the parallel fan-out — histogram/progress only; the ledger event is
// flushed serially by the caller).
func (o *blockedObs) blockBuilt(size int, ns int64) {
	if o == nil {
		return
	}
	o.blockSize.Observe(float64(size))
	o.blockNS.Observe(float64(ns))
	o.prog.blockDone()
}

// blocksLinked records the exact pair volume of a round of dendrogram
// builds and flushes the per-block ledger events in canonical
// (ascending block index) order.
func (o *blockedObs) blocksLinked(comps [][]int) {
	if o == nil {
		return
	}
	o.pairsFam.Add("block_linkage_exact", withinBlockPairs(comps))
	for i, c := range comps {
		ledgerBlockClustered(o.led, i, len(c))
	}
}

// setHeightsTotal resets the live sweep progress for one pooled sweep.
func (o *blockedObs) setHeightsTotal(n int) {
	if o == nil {
		return
	}
	o.prog.setHeights(n)
}

// blocksRebuilt records an incremental Recluster round's dendrogram
// rebuilds: the pairs computed and the pairs copied from absorbed
// blocks (prior[k] for rebuild[k]) into mining_pairs, plus one ledger
// event per rebuilt block, in ascending block order (rebuild is built
// in canonical component order, so the flush is deterministic).
func (o *blockedObs) blocksRebuilt(rebuild []int, comps [][]int, prior [][]*blockDendrogram) {
	if o == nil {
		return
	}
	var pairs, reused int64
	for k, bi := range rebuild {
		m := int64(len(comps[bi]))
		pairs += m * (m - 1) / 2
		for _, bd := range prior[k] {
			p := int64(len(bd.members))
			reused += p * (p - 1) / 2
		}
	}
	o.pairsFam.Add("block_linkage_exact", pairs-reused)
	o.pairsFam.Add("block_linkage_reused", reused)
	for _, bi := range rebuild {
		ledgerBlockClustered(o.led, bi, len(comps[bi]))
	}
}

// reclustered records one Recluster call in the ledger.
func (o *blockedObs) reclustered(blocks, reused, rebuilt, clusters int) {
	if o == nil {
		return
	}
	ledgerRecluster(o.led, blocks, reused, rebuilt, clusters)
}

// sweepRescored observes one fresh (block, segment) rescore inside the
// memoized sweep's parallel pass, attributed to the height bucket of
// the candidate that first crossed into that segment — so sweep_ns
// reflects where re-cut work actually happened, proportional to blocks
// rescored rather than total blocks.
func (o *blockedObs) sweepRescored(height float64, ns int64) {
	if o == nil {
		return
	}
	o.sweepFam.Add(sweepHeightBucket(height), ns)
}

// heightSweptMemo records one memoized-sweep candidate height's
// outcome: the serial reduce slice's wall time into the height bucket,
// blocks whose labeling changed into mining_sweep_blocks, their pair
// volume into mining_pairs, the ledger event, and live progress. The
// attrs are structural (segment crossings), independent of memo/cache
// state, so the ledger stays byte-stable across reruns and identical
// between cold and warm sweeps. Called serially in ascending height
// order.
func (o *blockedObs) heightSweptMemo(height float64, k int, valid bool, sil float64, changedBlocks int, changedPairs, ns int64) {
	if o == nil {
		return
	}
	bucket := sweepHeightBucket(height)
	o.sweepFam.Add(bucket, ns)
	o.sweepBlocksFam.Add(bucket, int64(changedBlocks))
	o.pairsFam.Add("sweep_scored", changedPairs)
	ledgerHeightSwept(o.led, height, k, valid, sil, changedBlocks, changedPairs)
	o.prog.sweepWork(int64(changedBlocks), 0)
	o.prog.heightDone()
}

// sweepMemo folds one memoized sweep's delta-vs-full accounting: memo
// outcome counts, the pair volume the memo skipped, the ledger summary
// event, and the live memo-hit counter.
func (o *blockedObs) sweepMemo(ms sweepMemoStats) {
	if o == nil {
		return
	}
	o.sweepMemoFam.Add("hit", ms.hits)
	o.sweepMemoFam.Add("refresh", ms.refreshes)
	o.sweepMemoFam.Add("miss", ms.misses)
	o.pairsFam.Add("sweep_memo_saved", ms.savedPairs)
	ledgerSweepMemo(o.led, ms)
	o.prog.sweepWork(0, ms.hits)
}
