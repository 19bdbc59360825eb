package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
)

// Mining ledger event kinds. The ledger is the mining pipeline's
// mirror of the fleet event ledger: an append-only, seq-numbered JSONL
// record of what the clustering run did, byte-stable across reruns at
// a fixed seed. Events deliberately carry no wall-clock time — timing
// lives in the telemetry snapshot (which is not byte-stable); the
// ledger records *what happened in what order*, so two runs can be
// diffed directly.
const (
	// EvStageBegin / EvStageEnd bracket one pipeline stage
	// ("featurize", "blocks", "cut", ...). Attrs: stage.
	EvStageBegin = "stage_begin"
	EvStageEnd   = "stage_end"
	// EvBlockClustered records one LSH block's exact dendrogram being
	// built. Attrs: block (index in canonical order), size.
	EvBlockClustered = "block_clustered"
	// EvHeightSwept records one pooled-sweep candidate height being
	// scored. Attrs: height, k (clusters at that cut), valid (whether a
	// silhouette was computable), silhouette, changed (blocks whose
	// labeling changed at this height: segment crossings), scored_pairs
	// (within-block pairs the scoring re-read). All attrs are
	// structural, independent of memo/cache state, so cold and warm
	// sweeps ledger identically.
	EvHeightSwept = "height_swept"
	// EvSweepMemo summarizes one memoized sweep's delta-vs-full
	// accounting. Attrs: hits, refreshes, misses (per candidate × block
	// sweep-grid cell), rescored_blocks, saved_pairs. Deterministic
	// across reruns: memo state depends only on the run's own history.
	EvSweepMemo = "sweep_memo"
	// EvCutChosen records the final cut decision. Attrs: height, k,
	// silhouette (empty when the exact sweep below the crossover chose
	// the cut and no pooled scoring ran).
	EvCutChosen = "cut_chosen"
	// EvRecluster records one IncrementalClusterer.Recluster call.
	// Attrs: blocks, reused, rebuilt, clusters.
	EvRecluster = "recluster"
)

// MiningEvent is one ledger line. Attrs values are pre-formatted
// strings so encoding is trivially deterministic (ints via
// strconv.Itoa, floats via strconv.FormatFloat 'g' -1).
type MiningEvent struct {
	Seq   int               `json:"seq"`
	Kind  string            `json:"kind"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// MiningLedger accumulates mining events in memory. All appends happen
// on serial code paths (stage boundaries, post-fan-out flushes in
// canonical order), but the mutex keeps it safe if an instrumented
// path ever runs concurrently. A nil *MiningLedger no-ops everywhere —
// same contract as nil telemetry — and, because attr maps are built
// inside the append methods, the disabled path allocates nothing.
type MiningLedger struct {
	mu     sync.Mutex
	events []MiningEvent
}

// NewMiningLedger returns an empty ledger.
func NewMiningLedger() *MiningLedger { return &MiningLedger{} }

// append assigns the next seq and stores the event.
func (l *MiningLedger) append(kind string, attrs map[string]string) {
	l.mu.Lock()
	l.events = append(l.events, MiningEvent{Seq: len(l.events), Kind: kind, Attrs: attrs})
	l.mu.Unlock()
}

// StageBegin / StageEnd bracket a pipeline stage.
func (l *MiningLedger) StageBegin(stage string) {
	if l == nil {
		return
	}
	l.append(EvStageBegin, map[string]string{"stage": stage})
}

func (l *MiningLedger) StageEnd(stage string) {
	if l == nil {
		return
	}
	l.append(EvStageEnd, map[string]string{"stage": stage})
}

// BlockClustered records one block's dendrogram build.
func (l *MiningLedger) BlockClustered(block, size int) {
	if l == nil {
		return
	}
	l.append(EvBlockClustered, map[string]string{
		"block": strconv.Itoa(block),
		"size":  strconv.Itoa(size),
	})
}

// HeightSwept records one scored candidate height.
func (l *MiningLedger) HeightSwept(height float64, k int, valid bool, silhouette float64, changedBlocks int, scoredPairs int64) {
	if l == nil {
		return
	}
	l.append(EvHeightSwept, map[string]string{
		"height":       strconv.FormatFloat(height, 'g', -1, 64),
		"k":            strconv.Itoa(k),
		"valid":        strconv.FormatBool(valid),
		"silhouette":   strconv.FormatFloat(silhouette, 'g', -1, 64),
		"changed":      strconv.Itoa(changedBlocks),
		"scored_pairs": strconv.FormatInt(scoredPairs, 10),
	})
}

// SweepMemo summarizes one memoized sweep's delta-vs-full accounting.
func (l *MiningLedger) SweepMemo(hits, refreshes, misses, rescoredBlocks, savedPairs int64) {
	if l == nil {
		return
	}
	l.append(EvSweepMemo, map[string]string{
		"hits":            strconv.FormatInt(hits, 10),
		"refreshes":       strconv.FormatInt(refreshes, 10),
		"misses":          strconv.FormatInt(misses, 10),
		"rescored_blocks": strconv.FormatInt(rescoredBlocks, 10),
		"saved_pairs":     strconv.FormatInt(savedPairs, 10),
	})
}

// CutChosen records the final cut. silhouette may be NaN when the
// exact-sweep path picked the cut without pooled scoring; it is
// formatted as "NaN" then, which is fine — attrs are strings.
func (l *MiningLedger) CutChosen(height float64, k int, silhouette float64) {
	if l == nil {
		return
	}
	l.append(EvCutChosen, map[string]string{
		"height":     strconv.FormatFloat(height, 'g', -1, 64),
		"k":          strconv.Itoa(k),
		"silhouette": strconv.FormatFloat(silhouette, 'g', -1, 64),
	})
}

// Recluster records one dirty-block recluster round.
func (l *MiningLedger) Recluster(blocks, reused, rebuilt, clusters int) {
	if l == nil {
		return
	}
	l.append(EvRecluster, map[string]string{
		"blocks":   strconv.Itoa(blocks),
		"reused":   strconv.Itoa(reused),
		"rebuilt":  strconv.Itoa(rebuilt),
		"clusters": strconv.Itoa(clusters),
	})
}

// Events returns a copy of the accumulated events.
func (l *MiningLedger) Events() []MiningEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]MiningEvent, len(l.events))
	copy(out, l.events)
	return out
}

// WriteMiningLedger writes the events as one JSON object per line.
// Attr keys are emitted in sorted order (json.Marshal sorts map keys),
// so the output is byte-deterministic for identical event sequences.
func WriteMiningLedger(path string, events []MiningEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: create mining ledger: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return fmt.Errorf("core: encode mining event: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("core: flush mining ledger: %w", err)
	}
	return f.Close()
}

// ReadMiningLedger reads a ledger file back, validating seq
// monotonicity.
func ReadMiningLedger(path string) ([]MiningEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open mining ledger: %w", err)
	}
	defer f.Close()
	var out []MiningEvent
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev MiningEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("core: parse mining ledger line %d: %w", len(out), err)
		}
		if ev.Seq != len(out) {
			return nil, fmt.Errorf("core: mining ledger seq gap: got %d want %d", ev.Seq, len(out))
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: read mining ledger: %w", err)
	}
	return out, nil
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

// LedgerEventCounts tallies events by kind — handy for tests and the
// smoke script.
func LedgerEventCounts(events []MiningEvent) map[string]int {
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	return counts
}
