package core

import (
	"strconv"

	"pushadminer/internal/telemetry"
)

// Mining event kinds: what the clustering run appends to the run's
// telemetry.Ledger, after the fleet's crawl events when both share
// one. The events are byte-stable across reruns at a fixed seed and
// deliberately carry no time — timing lives in the telemetry snapshot
// (which is not byte-stable); the ledger records *what happened in
// what order*, so two runs can be diffed directly.
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

// The typed appenders below build each event's attrs. Attr values
// are pre-formatted strings (ints via strconv, floats via
// strconv.FormatFloat 'g' -1), so encoding is trivially deterministic.
// Every appender returns before building its map when led is nil, so
// the disabled path allocates nothing.

func ledgerStage(led *telemetry.Ledger, kind, stage string) {
	if led == nil {
		return
	}
	led.Append(telemetry.Event{Kind: kind, Attrs: map[string]string{"stage": stage}})
}

func ledgerBlockClustered(led *telemetry.Ledger, block, size int) {
	if led == nil {
		return
	}
	led.Append(telemetry.Event{Kind: EvBlockClustered, Attrs: map[string]string{
		"block": strconv.Itoa(block),
		"size":  strconv.Itoa(size),
	}})
}

func ledgerHeightSwept(led *telemetry.Ledger, height float64, k int, valid bool, silhouette float64, changedBlocks int, scoredPairs int64) {
	if led == nil {
		return
	}
	led.Append(telemetry.Event{Kind: EvHeightSwept, Attrs: map[string]string{
		"height":       strconv.FormatFloat(height, 'g', -1, 64),
		"k":            strconv.Itoa(k),
		"valid":        strconv.FormatBool(valid),
		"silhouette":   strconv.FormatFloat(silhouette, 'g', -1, 64),
		"changed":      strconv.Itoa(changedBlocks),
		"scored_pairs": strconv.FormatInt(scoredPairs, 10),
	}})
}

func ledgerSweepMemo(led *telemetry.Ledger, ms sweepMemoStats) {
	if led == nil {
		return
	}
	led.Append(telemetry.Event{Kind: EvSweepMemo, Attrs: map[string]string{
		"hits":            strconv.FormatInt(ms.hits, 10),
		"refreshes":       strconv.FormatInt(ms.refreshes, 10),
		"misses":          strconv.FormatInt(ms.misses, 10),
		"rescored_blocks": strconv.FormatInt(ms.rescoredBlocks, 10),
		"saved_pairs":     strconv.FormatInt(ms.savedPairs, 10),
	}})
}

// ledgerCutChosen records the final cut.
func ledgerCutChosen(led *telemetry.Ledger, height float64, labels []int, silhouette float64) {
	if led == nil {
		return
	}
	led.Append(telemetry.Event{Kind: EvCutChosen, Attrs: map[string]string{
		"height":     strconv.FormatFloat(height, 'g', -1, 64),
		"k":          strconv.Itoa(numClusters(labels)),
		"silhouette": strconv.FormatFloat(silhouette, 'g', -1, 64),
	}})
}

func ledgerRecluster(led *telemetry.Ledger, blocks, reused, rebuilt, clusters int) {
	if led == nil {
		return
	}
	led.Append(telemetry.Event{Kind: EvRecluster, Attrs: map[string]string{
		"blocks":   strconv.Itoa(blocks),
		"reused":   strconv.Itoa(reused),
		"rebuilt":  strconv.Itoa(rebuilt),
		"clusters": strconv.Itoa(clusters),
	}})
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
