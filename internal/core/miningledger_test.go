package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"testing"

	"pushadminer/internal/telemetry"
)

// ledgerFS builds a corpus big enough to cross the
// blockedExactSweepMaxN crossover, so the pooled cut sweep (the source
// of height_swept events and sweep timings) actually runs.
func ledgerFS(t *testing.T) *FeatureSet {
	t.Helper()
	return parityFS(t, 1, 600)
}

// ledgerBytes serializes a ledger's events as JSONL.
func ledgerBytes(t *testing.T, led *telemetry.Ledger) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WriteLedger(&buf, led.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ledgerDiff names where two serialized ledgers diverge: the first seq
// whose events differ, with both events, the way the fleet parity tests
// print firstDiff.
func ledgerDiff(a, b []byte) string {
	ea, err := telemetry.ReadLedger(bytes.NewReader(a))
	if err != nil {
		return fmt.Sprintf("first ledger does not read back: %v", err)
	}
	eb, err := telemetry.ReadLedger(bytes.NewReader(b))
	if err != nil {
		return fmt.Sprintf("second ledger does not read back: %v", err)
	}
	for i := 0; i < len(ea) && i < len(eb); i++ {
		ja, _ := json.Marshal(ea[i])
		jb, _ := json.Marshal(eb[i])
		if !bytes.Equal(ja, jb) {
			return fmt.Sprintf("first divergent event at seq %d\n<<< %s\n>>> %s", i, ja, jb)
		}
	}
	return fmt.Sprintf("one ledger is a prefix of the other (%d vs %d events)", len(ea), len(eb))
}

// TestLedgerDiffNamesSeq: ledgerDiff points at the first divergent
// event and shows both sides.
func TestLedgerDiffNamesSeq(t *testing.T) {
	write := func(kinds ...string) []byte {
		led := telemetry.NewLedger()
		for _, k := range kinds {
			led.Append(telemetry.Event{Kind: k})
		}
		return ledgerBytes(t, led)
	}
	got := ledgerDiff(write("a", "b", "c", "d"), write("a", "b", "x", "d"))
	if !strings.Contains(got, "seq 2") || !strings.Contains(got, `"kind":"c"`) || !strings.Contains(got, `"kind":"x"`) {
		t.Errorf("diff of ledgers diverging at seq 2 = %q", got)
	}
	if got := ledgerDiff(write("a"), write("a", "b")); !strings.Contains(got, "prefix") {
		t.Errorf("diff of a ledger and its extension = %q", got)
	}
}

// kindCounts tallies events by kind.
func kindCounts(events []telemetry.Event) map[string]int {
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	return counts
}

// TestMiningLedgerDeterminism reruns the blocked path at a fixed seed
// and byte-compares the serialized ledgers: events carry no time and
// are flushed from serial code in canonical order, so two runs must
// serialize identically — with or without telemetry attached.
func TestMiningLedgerDeterminism(t *testing.T) {
	fs := ledgerFS(t)

	run := func(withMetrics bool) []byte {
		opts := ClusterOptions{Blocked: true, Ledger: telemetry.NewLedger()}
		if withMetrics {
			opts.Metrics = telemetry.New()
		}
		ClusterWPNs(fs, opts)
		return ledgerBytes(t, opts.Ledger)
	}

	a, b := run(false), run(false)
	if !bytes.Equal(a, b) {
		t.Errorf("two plain runs serialized different ledgers: %s", ledgerDiff(a, b))
	}
	if c := run(true); !bytes.Equal(a, c) {
		t.Errorf("attaching telemetry changed the ledger bytes: %s", ledgerDiff(a, c))
	}
	if bytes.Contains(a, []byte(`"time"`)) {
		t.Error("mining events carry a time; they must stay untimed")
	}

	events, err := telemetry.ReadLedger(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	counts := kindCounts(events)
	if counts[EvHeightSwept] == 0 {
		t.Error("no height_swept events: corpus did not cross the pooled-sweep crossover")
	}
	if counts[EvBlockClustered] == 0 || counts[EvCutChosen] != 1 {
		t.Errorf("event counts = %v, want blocks > 0 and exactly one cut_chosen", counts)
	}
	if counts[EvStageBegin] == 0 || counts[EvStageBegin] != counts[EvStageEnd] {
		t.Errorf("unbalanced stage brackets: %d begin, %d end", counts[EvStageBegin], counts[EvStageEnd])
	}
}

// TestBlockedUnionCountsDeterministic reruns the blocked path over one
// feature set and requires identical mining_pairs. The union phase's
// already-connected short-circuit makes its counts depend on the order
// the band groups are visited, so that order must be fixed (band by
// band, band values ascending) and so must the dealing of groups to
// union workers, at each worker count. Below a few thousand records
// the band groups rarely overlap enough for the order to show.
func TestBlockedUnionCountsDeterministic(t *testing.T) {
	fs := parityFS(t, 1, 3000)
	pairsOf := func() map[string]int64 {
		reg := telemetry.New()
		ClusterWPNs(fs, ClusterOptions{Blocked: true, Metrics: reg})
		return reg.Snapshot().Families["mining_pairs"]
	}
	first := pairsOf()
	for run := 2; run <= 3; run++ {
		if got := pairsOf(); !maps.Equal(got, first) {
			t.Fatalf("run %d: mining_pairs = %v, run 1 had %v", run, got, first)
		}
	}
	for _, workers := range []int{1, 2, 3} {
		_, a := blockedComponents(fs, workers)
		_, b := blockedComponents(fs, workers)
		if a != b {
			t.Errorf("%d workers: union tallies %+v then %+v", workers, a, b)
		}
	}
}

func atoi(t *testing.T, s string) int64 {
	t.Helper()
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad int attr %q: %v", s, err)
	}
	return v
}

// TestMiningLedgerReconciliation cross-checks the ledger against the
// telemetry snapshot of the same run: the two observation surfaces must
// agree on pair volumes, and the cut event must match the returned
// result.
func TestMiningLedgerReconciliation(t *testing.T) {
	fs := ledgerFS(t)
	reg := telemetry.New()
	led := telemetry.NewLedger()
	res := ClusterWPNs(fs, ClusterOptions{Blocked: true, Metrics: reg, Ledger: led})

	snap := reg.Snapshot()
	pairs := snap.Families["mining_pairs"]

	var linkagePairs, sweepPairs int64
	var cut *telemetry.Event
	for _, ev := range led.Events() {
		ev := ev
		switch ev.Kind {
		case EvBlockClustered:
			m := atoi(t, ev.Attrs["size"])
			linkagePairs += m * (m - 1) / 2
		case EvHeightSwept:
			if ev.Attrs["valid"] == "true" {
				sweepPairs += atoi(t, ev.Attrs["scored_pairs"])
			}
		case EvCutChosen:
			cut = &ev
		}
	}
	if linkagePairs == 0 {
		t.Fatal("no block_clustered events")
	}
	if got := pairs["block_linkage_exact"]; got != linkagePairs {
		t.Errorf("mining_pairs[block_linkage_exact] = %d, ledger says %d", got, linkagePairs)
	}
	if got := pairs["sweep_scored"]; got != sweepPairs {
		t.Errorf("mining_pairs[sweep_scored] = %d, ledger says %d", got, sweepPairs)
	}
	if pairs["blocks_gate_checked"] == 0 || pairs["blocks_path_rejected"] == 0 || pairs["blocks_edges"] == 0 {
		t.Errorf("union-phase accounting empty: %v", pairs)
	}
	if got, want := pairs["blocks_gate_checked"], pairs["blocks_gate_rejected"]+pairs["blocks_path_rejected"]+pairs["blocks_dist_checked"]; got != want {
		t.Errorf("union phase: %d pairs gate-checked, but rejected + path-rejected + dist-checked = %d", got, want)
	}
	if cut == nil {
		t.Fatal("no cut_chosen event")
	}
	if h, _ := strconv.ParseFloat(cut.Attrs["height"], 64); h != res.CutHeight {
		t.Errorf("cut event height = %v, result says %v", h, res.CutHeight)
	}
	if k := atoi(t, cut.Attrs["k"]); int(k) != numClusters(res.Labels) {
		t.Errorf("cut event k = %d, result has %d clusters", k, numClusters(res.Labels))
	}

	// Sub-stage sweep attribution landed: some height bucket saw time,
	// and the full preresolved key set is present even for empty buckets.
	sweep := snap.Families["mining_sweep_ns"]
	if len(sweep) != len(sweepBucketNames) {
		t.Errorf("mining_sweep_ns has %d buckets, want %d preresolved", len(sweep), len(sweepBucketNames))
	}
	var sweepNS int64
	for _, v := range sweep {
		sweepNS += v
	}
	if sweepNS <= 0 {
		t.Error("no sweep time attributed to any height bucket")
	}
	// Memory accounting landed at stage boundaries.
	if snap.Families["mining_stage_alloc_bytes"] == nil {
		t.Error("mining_stage_alloc_bytes family missing")
	}
	if _, ok := snap.Gauges["mining_heap_alloc_bytes"]; !ok {
		t.Error("mining_heap_alloc_bytes gauge missing")
	}
}

// TestMiningLedgerWithoutTelemetry pins the sinks-are-independent
// contract: a run with only a ledger attached (no Metrics, no Tracer)
// still records the full event stream.
func TestMiningLedgerWithoutTelemetry(t *testing.T) {
	fs := parityFS(t, 2, 150)
	led := telemetry.NewLedger()
	ClusterWPNs(fs, ClusterOptions{Blocked: true, Ledger: led})
	counts := kindCounts(led.Events())
	if counts[EvStageBegin] == 0 || counts[EvBlockClustered] == 0 || counts[EvCutChosen] != 1 {
		t.Errorf("ledger-only run events = %v", counts)
	}
}

// TestMiningLedgerIncremental checks the streaming clusterer's events
// reconcile with its own stats and its pair counts: one recluster event
// per Recluster call, their rebuilt/reused attrs summing to the block
// counters, and one block_clustered event per rebuilt block, whose
// pairs are each either computed (block_linkage_exact) or copied from
// an absorbed block (block_linkage_reused).
func TestMiningLedgerIncremental(t *testing.T) {
	fs := parityFS(t, 1, 150)
	led := telemetry.NewLedger()
	reg := telemetry.New()
	inc, _ := streamAll(fs, ClusterOptions{Ledger: led, Metrics: reg}, 40)

	var reclusters, rebuilt, reused, blocks, blockPairs int64
	for _, ev := range led.Events() {
		switch ev.Kind {
		case EvRecluster:
			reclusters++
			rebuilt += atoi(t, ev.Attrs["rebuilt"])
			reused += atoi(t, ev.Attrs["reused"])
		case EvBlockClustered:
			blocks++
			m := atoi(t, ev.Attrs["size"])
			blockPairs += m * (m - 1) / 2
		}
	}
	pairs := reg.Snapshot().Families["mining_pairs"]
	exact, copied := pairs["block_linkage_exact"], pairs["block_linkage_reused"]
	if exact+copied != blockPairs {
		t.Errorf("block_linkage_exact %d + block_linkage_reused %d = %d, block_clustered events hold %d pairs",
			exact, copied, exact+copied, blockPairs)
	}
	if copied == 0 {
		t.Error("no Recluster copied a distance from an absorbed block")
	}
	st := inc.Stats()
	if reclusters != int64(st.Reclusters) {
		t.Errorf("%d recluster events, stats count %d Reclusters", reclusters, st.Reclusters)
	}
	if rebuilt != int64(st.BlocksRebuilt) || reused != int64(st.BlocksReused) {
		t.Errorf("recluster events sum rebuilt=%d reused=%d, stats %d/%d", rebuilt, reused, st.BlocksRebuilt, st.BlocksReused)
	}
	if blocks != rebuilt {
		t.Errorf("%d block_clustered events, want one per rebuilt block (%d)", blocks, rebuilt)
	}
}
