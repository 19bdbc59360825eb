package core

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pushadminer/internal/telemetry"
)

// Mining event kinds: what the clustering run appends to the run's
// telemetry.Ledger, after the fleet's crawl events when both share
// one. The events are byte-stable across reruns at a fixed seed and
// deliberately carry no time — timing lives in the telemetry snapshot
// (which is not byte-stable); the ledger records *what happened in
// what order*, so two runs can be diffed directly. Attr values are
// pre-formatted strings (ints via strconv, floats via
// strconv.FormatFloat 'g' -1), so encoding is trivially deterministic.
const (
	// EvStageBegin / EvStageEnd bracket one pipeline stage
	// ("featurize", "blocks", "cut", ...). Attrs: stage.
	EvStageBegin = "stage_begin"
	EvStageEnd   = "stage_end"
	// EvBlockClustered records one LSH block's exact dendrogram being
	// built. Attrs: block (index in canonical order), size.
	EvBlockClustered = "block_clustered"
	// EvHeightSwept records one cut-sweep candidate height being
	// scored, on either route. Attrs: height, k (clusters at that cut),
	// valid (whether a silhouette was computable), silhouette, changed
	// (blocks whose labeling changed at this height: segment
	// crossings), scored_pairs (within-block pairs the scoring
	// re-read). All attrs are structural, independent of memo/cache
	// state, so cold and warm sweeps ledger identically.
	EvHeightSwept = "height_swept"
	// EvSweepMemo summarizes one memoized sweep's delta-vs-full
	// accounting. Attrs: hits, refreshes, misses (per candidate × block
	// sweep-grid cell), rescored_blocks, saved_pairs. Deterministic
	// across reruns: memo state depends only on the run's own history.
	EvSweepMemo = "sweep_memo"
	// EvCutChosen records the final cut decision. Attrs: height, k,
	// silhouette.
	EvCutChosen = "cut_chosen"
	// EvRecluster records one IncrementalClusterer.Recluster call.
	// Attrs: blocks, reused, rebuilt, clusters.
	EvRecluster = "recluster"
)

// MiningStatus is the live introspection snapshot served at /miningz:
// the mining pipeline's mirror of the fleet's FleetStatus. It is
// rebuilt (as a fresh immutable value) at every stage boundary and at
// throttled intervals inside the block-clustering and cut-sweep
// fan-outs, published through a telemetry.Publisher, and rendered as
// JSON or (via String) a terminal dashboard by cmd/wpnstat.
type MiningStatus struct {
	// Stage is the pipeline stage currently running ("featurize",
	// "blocks", "cut", ...; "done" after the run finishes).
	Stage string `json:"stage"`
	// Mode names the clustering path: cached (exact) or blocked.
	Mode string `json:"mode"`
	// Records is the corpus size entering clustering: the records left
	// after the valid-landing filter.
	Records int `json:"records"`

	// BlocksTotal/BlocksDone track per-block exact clustering on the
	// blocked path (0/0 on the matrix paths).
	BlocksTotal int `json:"blocks_total"`
	BlocksDone  int `json:"blocks_done"`
	// HeightsTotal/HeightsDone track the cut sweep's candidate heights
	// on either route (0/0 under a fixed cut height).
	HeightsTotal int `json:"heights_total"`
	HeightsDone  int `json:"heights_done"`

	// PairsExact/PairsPruned mirror the cluster_pairs accounting:
	// soft-cosine evaluations performed vs. skipped.
	PairsExact  int64 `json:"pairs_exact"`
	PairsPruned int64 `json:"pairs_pruned"`

	// SweepBlocksRescored / SweepMemoHits describe the cut sweep's
	// memoization: block re-cuts actually performed vs. (candidate ×
	// block) sweep-grid cells served from the per-block cut memo. A
	// sweep over one freshly built block (the exact route, or the
	// blocked route below the validation-scale crossover) re-cuts at
	// every height and never hits.
	SweepBlocksRescored int64 `json:"sweep_blocks_rescored"`
	SweepMemoHits       int64 `json:"sweep_memo_hits"`

	// Done marks the final publication of a run.
	Done bool `json:"done"`
}

// String renders the status as the one-screen dashboard wpnstat shows
// with -endpoint miningz.
func (s MiningStatus) String() string {
	var b strings.Builder
	state := "running"
	if s.Done {
		state = "done"
	}
	fmt.Fprintf(&b, "mining %-11s %-8s stage %-15s n=%d\n", s.Mode, state, s.Stage, s.Records)
	fmt.Fprintf(&b, "blocks %d/%-8d heights %d/%-8d pairs exact=%d pruned=%d\n",
		s.BlocksDone, s.BlocksTotal, s.HeightsDone, s.HeightsTotal, s.PairsExact, s.PairsPruned)
	if s.SweepBlocksRescored > 0 || s.SweepMemoHits > 0 {
		fmt.Fprintf(&b, "sweep rescored=%d memo hits=%d\n",
			s.SweepBlocksRescored, s.SweepMemoHits)
	}
	return b.String()
}

// miningStages are the pipeline stages whose wall-times are reported in
// the mining_stage_ns family. They are preresolved when a batch run's
// observer is built, so a snapshot always carries the full key set,
// even for stages that ran in zero time or (like blocks on the exact
// route) did not run. The silhouette scoring is part of "cut" on both
// routes.
var miningStages = []string{
	"filter", "featurize", "distance_matrix", "linkage",
	"blocks", "block_linkage",
	"cut", "label", "propagate", "meta",
}

// sweepBucketNames are the mining_sweep_ns family's height-bucket
// labels: candidate cut heights land in 0.1-wide distance buckets
// (soft-cosine distance lives in [0, 1]; anything at or above 1 —
// possible under non-average linkages — pools in "1.0+"). All labels
// are preresolved when the observer is built, so a snapshot always
// carries the full key set regardless of which heights a given corpus
// sampled.
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
// count is deterministic at a given worker count.
type blockedTally struct {
	gateChecked  int64 // pairs reaching the edge test (not already unioned)
	gateRejected int64 // rejected by the Hamming gate
	pathRejected int64 // rejected by the path bound, no quad form
	distChecked  int64 // exact distances evaluated for confirmation
	edges        int64 // confirmed union edges
}

// add accumulates u into t.
func (t *blockedTally) add(u blockedTally) {
	t.gateChecked += u.gateChecked
	t.gateRejected += u.gateRejected
	t.pathRejected += u.pathRejected
	t.distChecked += u.distChecked
	t.edges += u.edges
}

// miningObs is the one observer of a mining run: a RunPipeline call, a
// standalone ClusterWPNs, or an IncrementalClusterer's stream of
// Recluster rounds. The mining code reports each event through one
// method, which writes it to every sink the run attached: the
// registry's mining instruments, the tracer's stage spans, the ledger,
// and the live MiningStatus served at /miningz. A nil *miningObs (no
// sink attached) observes nothing and allocates nothing, so call sites
// need no guards. Instruments are atomic, so the parallel block and
// sweep fan-outs report blockBuilt and sweepRescored directly; every
// ledger event comes from serial code in canonical order, which keeps
// the ledger byte-stable.
type miningObs struct {
	reg  *telemetry.Registry
	tr   *telemetry.Tracer
	led  *telemetry.Ledger
	root telemetry.SpanID // parent of the stage spans; 0 makes them roots
	// batch is set for RunPipeline and ClusterWPNs runs, which time,
	// trace and bracket their stages. A stream's Recluster rounds only
	// show their stage on /miningz.
	batch bool

	// Instruments; nil without a registry, and nil instruments ignore
	// writes. The stage instruments exist on batch runs only.
	stageNS, stageAlloc     *telemetry.Family // wall time, allocation per stage
	heapAlloc, heapObjects  *telemetry.Gauge  // live heap at the last stage end
	sweepNS, sweepBlocks    *telemetry.Family // by height bucket
	sweepMemoFam, pairsFam  *telemetry.Family
	blockSize, blockBuildNS *telemetry.Histogram

	// Live status: lock-free counters the hot paths bump, published as
	// fresh MiningStatus values.
	pub                       *telemetry.Publisher[MiningStatus]
	mode                      string
	curStage                  atomic.Value // string
	records                   atomic.Int64
	blocksTotal, blocksDone   atomic.Int64
	heightsTotal, heightsDone atomic.Int64
	pairsExact, pairsPruned   atomic.Int64
	rescored, memoHits        atomic.Int64
}

// newMiningObs builds the observer of one run that clusters records
// records by mode ("cached" or "blocked"; see clusterMode), and
// registers its live status for /miningz (the latest run wins). It
// returns nil when reg, tr and led are all nil. batch selects a batch
// run's stage timing, spans and ledger brackets; a stream has none.
func newMiningObs(reg *telemetry.Registry, tr *telemetry.Tracer, led *telemetry.Ledger, mode string, records int, batch bool) *miningObs {
	if reg == nil && tr == nil && led == nil {
		return nil
	}
	o := &miningObs{reg: reg, tr: tr, led: led, batch: batch, mode: mode,
		pub: telemetry.NewPublisher[MiningStatus]("mining")}
	if reg != nil {
		// family registers a family with every member preresolved.
		family := func(name, label string, members []string) *telemetry.Family {
			f := reg.Family(name, label)
			for _, m := range members {
				f.With(m)
			}
			return f
		}
		if batch {
			o.stageNS = family("mining_stage_ns", "stage", miningStages)
			o.stageAlloc = family("mining_stage_alloc_bytes", "stage", miningStages)
			o.heapAlloc = reg.Gauge("mining_heap_alloc_bytes")
			o.heapObjects = reg.Gauge("mining_heap_objects")
		}
		o.sweepNS = family("mining_sweep_ns", "height_bucket", sweepBucketNames)
		o.sweepBlocks = family("mining_sweep_blocks", "height_bucket", sweepBucketNames)
		o.sweepMemoFam = family("mining_sweep_memo", "outcome", sweepMemoOutcomes)
		o.pairsFam = family("mining_pairs", "phase", miningPairPhases)
		o.blockSize = reg.Histogram("mining_block_size", telemetry.SizeBuckets)
		o.blockBuildNS = reg.Histogram("mining_block_ns", telemetry.NanosBuckets)
	}
	o.records.Store(int64(records))
	o.curStage.Store("start")
	o.publish(false)
	return o
}

// publish rebuilds and publishes an immutable status snapshot. Fresh
// value every time: the published pointer is read concurrently by the
// debug server and must never be mutated afterwards.
func (o *miningObs) publish(done bool) {
	st := &MiningStatus{
		Stage:               o.curStage.Load().(string),
		Mode:                o.mode,
		Records:             int(o.records.Load()),
		BlocksTotal:         int(o.blocksTotal.Load()),
		BlocksDone:          int(o.blocksDone.Load()),
		HeightsTotal:        int(o.heightsTotal.Load()),
		HeightsDone:         int(o.heightsDone.Load()),
		PairsExact:          o.pairsExact.Load(),
		PairsPruned:         o.pairsPruned.Load(),
		SweepBlocksRescored: o.rescored.Load(),
		SweepMemoHits:       o.memoHits.Load(),
		Done:                done,
	}
	if done {
		st.Stage = "done"
	}
	o.pub.Publish(st)
}

// clock reads the wall clock for an event that reports its duration,
// or returns the zero time when the run is unobserved, so the disabled
// path reads no clock.
func (o *miningObs) clock() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// stage starts one named stage and returns the function that ends it.
// On a batch run it brackets the stage in the ledger, publishes the
// transition, opens a span under the run's root, and on its end records
// the wall time and, with a registry attached, the stage's allocation
// and the live heap (ReadMemStats stops the world, so it runs only at
// stage edges). A stream only publishes the transition. Usage:
//
//	done := o.stage("linkage")
//	... work ...
//	done()
func (o *miningObs) stage(name string) func() {
	if o == nil {
		return func() {}
	}
	o.curStage.Store(name)
	if !o.batch {
		o.publish(false)
		return func() {}
	}
	o.event(EvStageBegin, "stage", name)
	o.publish(false)
	var allocStart uint64
	if o.reg != nil {
		allocStart, _, _ = readMem()
	}
	start := time.Now()
	id := o.tr.Start("", name, o.root, nil)
	return func() {
		o.stageNS.Add(name, time.Since(start).Nanoseconds())
		if o.reg != nil {
			// TotalAlloc is monotone, so the delta is the stage's
			// cumulative allocation volume (includes memory already
			// freed by GC; the gauges carry the live view).
			allocEnd, heap, objs := readMem()
			o.stageAlloc.Add(name, int64(allocEnd-allocStart))
			o.heapAlloc.Set(int64(heap))
			o.heapObjects.Set(int64(objs))
		}
		o.tr.End(id)
		o.event(EvStageEnd, "stage", name)
	}
}

// readMem samples the runtime memory stats at a stage boundary.
func readMem() (totalAlloc, heapAlloc, heapObjects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.HeapAlloc, ms.HeapObjects
}

// event appends one ledger event whose attrs are the key/value pairs
// kv. Callers whose values cost something to format check o.led first.
func (o *miningObs) event(kind string, kv ...string) {
	if o.led == nil {
		return
	}
	attrs := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		attrs[kv[i]] = kv[i+1]
	}
	o.led.Append(telemetry.Event{Kind: kind, Attrs: attrs})
}

// clustering records the number of records entering clustering: a
// pipeline's records left after the valid-landing filter, or the
// records a stream has added when a Recluster starts.
func (o *miningObs) clustering(records int) {
	if o == nil {
		return
	}
	o.records.Store(int64(records))
	o.publish(false)
}

// pairs accounts a batch run's pairs of n records in the cluster_pairs
// family and the live status: exact pairs had their soft-cosine
// distance computed; the rest of the n(n−1)/2 (pruned) were never
// touched.
func (o *miningObs) pairs(n int, exact int64) {
	if o == nil {
		return
	}
	pruned := int64(n)*int64(n-1)/2 - exact
	fam := o.reg.Family("cluster_pairs", "kind")
	fam.Add("exact", exact)
	fam.Add("pruned", pruned)
	o.pairsExact.Add(exact)
	o.pairsPruned.Add(pruned)
}

// unionTally folds the blocked union phase's tally into mining_pairs.
func (o *miningObs) unionTally(t blockedTally) {
	if o == nil {
		return
	}
	o.pairsFam.Add("blocks_gate_checked", t.gateChecked)
	o.pairsFam.Add("blocks_gate_rejected", t.gateRejected)
	o.pairsFam.Add("blocks_path_rejected", t.pathRejected)
	o.pairsFam.Add("blocks_dist_checked", t.distChecked)
	o.pairsFam.Add("blocks_edges", t.edges)
}

// buildingBlocks resets the live per-block progress for a round of n
// block dendrogram builds.
func (o *miningObs) buildingBlocks(n int) {
	if o == nil {
		return
	}
	o.blocksTotal.Store(int64(n))
	o.blocksDone.Store(0)
	o.publish(false)
}

// blockBuilt observes one block dendrogram over size records whose
// build began at start. It is called from inside the parallel fan-out,
// so it touches only the atomic histograms and progress; the ledger
// event follows from blockLinked. Publication is throttled (every 64
// blocks, plus the last) so a run with thousands of blocks does not
// allocate a snapshot per block.
func (o *miningObs) blockBuilt(size int, start time.Time) {
	if o == nil {
		return
	}
	o.blockSize.Observe(float64(size))
	o.blockBuildNS.Observe(float64(time.Since(start).Nanoseconds()))
	if done := o.blocksDone.Add(1); done%64 == 0 || done == o.blocksTotal.Load() {
		o.publish(false)
	}
}

// blockLinked records one built block dendrogram after the build
// fan-out, in ascending block order: block bi of size records, whose
// build copied the within-block pairs of the cached blocks it absorbed
// (none on the batch route) and computed the rest.
func (o *miningObs) blockLinked(bi, size int, absorbed []*blockDendrogram) {
	if o == nil {
		return
	}
	var reused int64
	for _, bd := range absorbed {
		p := int64(len(bd.members))
		reused += p * (p - 1) / 2
	}
	m := int64(size)
	o.pairsFam.Add("block_linkage_exact", m*(m-1)/2-reused)
	o.pairsFam.Add("block_linkage_reused", reused)
	if o.led != nil {
		o.event(EvBlockClustered, "block", strconv.Itoa(bi), "size", strconv.Itoa(size))
	}
}

// sweeping resets the live sweep progress for one pooled sweep over
// the given number of candidate heights.
func (o *miningObs) sweeping(candidates int) {
	if o == nil {
		return
	}
	o.heightsTotal.Store(int64(candidates))
	o.heightsDone.Store(0)
	o.publish(false)
}

// sweepRescored observes one fresh (block, segment) rescore inside the
// memoized sweep's parallel pass, begun at start and attributed to the
// height bucket of the candidate that first crossed into that segment —
// so sweep_ns reflects where re-cut work actually happened,
// proportional to blocks rescored rather than total blocks. Every
// worker adds its own rescore times, so mining_sweep_ns is summed
// worker time: with several workers its buckets can add up to more
// than the cut stage's wall time.
func (o *miningObs) sweepRescored(height float64, start time.Time) {
	if o == nil {
		return
	}
	o.sweepNS.Add(sweepHeightBucket(height), time.Since(start).Nanoseconds())
}

// heightSwept records one candidate height's outcome, called serially
// in ascending height order: the serial reduce slice begun at start
// into the height bucket, the changed blocks (segment crossings) into
// mining_sweep_blocks, their pair volume into mining_pairs, the ledger
// event, and live progress. The attrs are structural, independent of
// memo/cache state, so the ledger stays byte-stable across reruns and
// identical between cold and warm sweeps.
func (o *miningObs) heightSwept(height float64, k int, valid bool, sil float64, changed int, changedPairs int64, start time.Time) {
	if o == nil {
		return
	}
	bucket := sweepHeightBucket(height)
	o.sweepNS.Add(bucket, time.Since(start).Nanoseconds())
	o.sweepBlocks.Add(bucket, int64(changed))
	o.pairsFam.Add("sweep_scored", changedPairs)
	if o.led != nil {
		o.event(EvHeightSwept,
			"height", strconv.FormatFloat(height, 'g', -1, 64),
			"k", strconv.Itoa(k),
			"valid", strconv.FormatBool(valid),
			"silhouette", strconv.FormatFloat(sil, 'g', -1, 64),
			"changed", strconv.Itoa(changed),
			"scored_pairs", strconv.FormatInt(changedPairs, 10))
	}
	o.rescored.Add(int64(changed))
	o.heightsDone.Add(1)
	o.publish(false)
}

// sweepMemo folds one memoized sweep's delta-vs-full accounting: memo
// outcome counts, the pair volume the memo skipped, the ledger summary
// event, and the live memo-hit counter (carried out by the next
// publication).
func (o *miningObs) sweepMemo(ms sweepMemoStats) {
	if o == nil {
		return
	}
	o.sweepMemoFam.Add("hit", ms.hits)
	o.sweepMemoFam.Add("refresh", ms.refreshes)
	o.sweepMemoFam.Add("miss", ms.misses)
	o.pairsFam.Add("sweep_memo_saved", ms.savedPairs)
	if o.led != nil {
		o.event(EvSweepMemo,
			"hits", strconv.FormatInt(ms.hits, 10),
			"refreshes", strconv.FormatInt(ms.refreshes, 10),
			"misses", strconv.FormatInt(ms.misses, 10),
			"rescored_blocks", strconv.FormatInt(ms.rescoredBlocks, 10),
			"saved_pairs", strconv.FormatInt(ms.savedPairs, 10))
	}
	o.memoHits.Add(ms.hits)
}

// cutChosen records the final cut in the ledger.
func (o *miningObs) cutChosen(height float64, labels []int, sil float64) {
	if o == nil || o.led == nil {
		return
	}
	o.event(EvCutChosen,
		"height", strconv.FormatFloat(height, 'g', -1, 64),
		"k", strconv.Itoa(numClusters(labels)),
		"silhouette", strconv.FormatFloat(sil, 'g', -1, 64))
}

// reclustered records the end of one Recluster round in the ledger and
// publishes the round's final status.
func (o *miningObs) reclustered(blocks, reused, rebuilt, clusters int) {
	if o == nil {
		return
	}
	if o.led != nil {
		o.event(EvRecluster,
			"blocks", strconv.Itoa(blocks),
			"reused", strconv.Itoa(reused),
			"rebuilt", strconv.Itoa(rebuilt),
			"clusters", strconv.Itoa(clusters))
	}
	o.publish(true)
}

// finish ends a batch run: it closes the root span, if the run has
// one, and publishes the final status.
func (o *miningObs) finish() {
	if o == nil {
		return
	}
	o.tr.End(o.root)
	o.publish(true)
}

// numClusters counts distinct non-negative labels — the k reported in
// cut events.
func numClusters(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		if l >= 0 {
			seen[l] = true
		}
	}
	return len(seen)
}

// clusterMode names the path ClusterWPNs will take for opts, for the
// status Mode field.
func clusterMode(opts ClusterOptions) string {
	if opts.Blocked {
		return "blocked"
	}
	return "cached"
}
