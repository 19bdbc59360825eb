package core

import (
	"strconv"
	"testing"

	"pushadminer/internal/telemetry"
)

// TestMiningObservabilityDisabled pins the mining plane's disabled-path
// contract, mirroring the fleet plane's: every nil-receiver method is a
// no-op with zero allocations, so fully un-observed clustering pays
// nothing for the instrumentation points threaded through it.
func TestMiningObservabilityDisabled(t *testing.T) {
	var led *telemetry.Ledger
	var prog *miningProgress
	var obs *blockedObs
	var st *stageTimer
	labels := []int{0, 1, 1}
	if n := testing.AllocsPerRun(100, func() {
		ledgerStage(led, EvStageBegin, "cut")
		ledgerStage(led, EvStageEnd, "cut")
		ledgerBlockClustered(led, 3, 7)
		ledgerHeightSwept(led, 0.25, 4, true, 0.8, 3, 21)
		ledgerSweepMemo(led, sweepMemoStats{hits: 10, misses: 5})
		ledgerCutChosen(led, 0.25, labels, 0.8)
		ledgerRecluster(led, 5, 3, 2, 9)
		prog.setStage("cut")
		prog.setBlocks(5)
		prog.blockDone()
		prog.setHeights(64)
		prog.heightDone()
		prog.addPairs(10, 20)
		prog.sweepWork(5, 10)
		prog.finish()
		obs.setBlocksTotal(5)
		obs.blockBuilt(7, 1000)
		obs.blocksLinked(nil)
		obs.blocksRebuilt(nil, nil, nil)
		obs.setHeightsTotal(64)
		obs.sweepRescored(0.25, 1000)
		obs.heightSweptMemo(0.25, 4, true, 0.8, 3, 21, 1000)
		obs.sweepMemo(sweepMemoStats{hits: 10, misses: 5})
		obs.reclustered(5, 3, 2, 9)
		obs.recordTally(nil)
		st.stage("cut")
		st.close()
	}); n != 0 {
		t.Errorf("disabled mining-plane path allocates %v per run, want 0", n)
	}
	if got := led.Events(); got != nil {
		t.Errorf("nil ledger Events = %v, want nil", got)
	}
	if got := obs.tally(); got != nil {
		t.Errorf("nil obs tally = %v, want nil", got)
	}
	if newStageTimer(nil, nil, 0, nil, nil) != nil {
		t.Error("stage timer with no sinks should be nil")
	}
	if newBlockedObs(nil, nil, nil) != nil {
		t.Error("blocked obs with no sinks should be nil")
	}
}

// TestMiningObservabilityByteParity asserts observation never perturbs
// clustering output: the blocked path and the incremental clusterer
// produce identical results with every sink attached and with none.
func TestMiningObservabilityByteParity(t *testing.T) {
	fs := parityFS(t, 1, 150)
	for _, mode := range []struct {
		name string
		run  func(*FeatureSet, ClusterOptions) *ClusterResult
	}{
		{"blocked", func(fs *FeatureSet, opts ClusterOptions) *ClusterResult {
			opts.Blocked = true
			return ClusterWPNs(fs, opts)
		}},
		{"incremental", func(fs *FeatureSet, opts ClusterOptions) *ClusterResult {
			_, res := streamAll(fs, opts, 40)
			return res
		}},
	} {
		plain := mode.run(fs, ClusterOptions{})

		opts := ClusterOptions{
			Metrics: telemetry.New(),
			Tracer:  telemetry.NewTracer(nil),
			Ledger:  telemetry.NewLedger(),
		}
		observed := mode.run(fs, opts)

		if !sameLabels(plain.Labels, observed.Labels) {
			t.Errorf("%s: labels differ with observation attached", mode.name)
		}
		if plain.CutHeight != observed.CutHeight || plain.Silhouette != observed.Silhouette {
			t.Errorf("%s: cut %v/%v with observation, want %v/%v", mode.name,
				observed.CutHeight, observed.Silhouette, plain.CutHeight, plain.Silhouette)
		}
		if len(opts.Ledger.Events()) == 0 {
			t.Errorf("%s: observed run recorded no ledger events", mode.name)
		}
	}
}

// TestBlockHistogramExtremes drives the block cost/size histograms at
// the distribution's edges — a run of singleton blocks plus one giant
// block — and checks both histograms and the per-block ledger events
// see every block exactly once.
func TestBlockHistogramExtremes(t *testing.T) {
	fs := parityFS(t, 1, 150)
	n := len(fs.Records)
	// Hand-built partition: singletons 0..9, one giant block with the
	// rest. buildBlockDendrograms only needs a partition, not one the
	// band index would produce.
	comps := make([][]int, 0, 11)
	for i := 0; i < 10; i++ {
		comps = append(comps, []int{i})
	}
	giant := make([]int, 0, n-10)
	for i := 10; i < n; i++ {
		giant = append(giant, i)
	}
	comps = append(comps, giant)

	reg := telemetry.New()
	led := telemetry.NewLedger()
	obs := newBlockedObs(reg, led, nil)
	blocks := buildBlockDendrograms(fs, comps, 0, obs)
	if len(blocks) != len(comps) {
		t.Fatalf("built %d blocks, want %d", len(blocks), len(comps))
	}

	snap := reg.Snapshot()
	size := snap.Histograms["mining_block_size"]
	if size.Count != int64(len(comps)) {
		t.Errorf("mining_block_size count = %d, want %d", size.Count, len(comps))
	}
	// Bounds are {1, 2, 4, ...}: all ten singletons land in the first
	// bucket (<= 1), and the giant (140 members) in the <= 256 bucket.
	if size.Counts[0] != 10 {
		t.Errorf("size bucket <=1 has %d, want 10 singletons", size.Counts[0])
	}
	if got := size.Sum; got != float64(10+len(giant)) {
		t.Errorf("size sum = %v, want %v", got, 10+len(giant))
	}
	cost := snap.Histograms["mining_block_ns"]
	if cost.Count != int64(len(comps)) {
		t.Errorf("mining_block_ns count = %d, want %d", cost.Count, len(comps))
	}
	if cost.Sum <= 0 {
		t.Errorf("mining_block_ns sum = %v, want > 0", cost.Sum)
	}
	// Exact pair volume: 0 for each singleton, m(m-1)/2 for the giant.
	// A batch build has no earlier blocks to copy from.
	m := int64(len(giant))
	if got, want := snap.Families["mining_pairs"]["block_linkage_exact"], m*(m-1)/2; got != want {
		t.Errorf("block_linkage_exact = %d, want %d", got, want)
	}
	if got, ok := snap.Families["mining_pairs"]["block_linkage_reused"]; !ok || got != 0 {
		t.Errorf("block_linkage_reused = %d (present %v), want a preresolved 0", got, ok)
	}

	events := led.Events()
	counts := kindCounts(events)
	if counts[EvBlockClustered] != len(comps) {
		t.Errorf("ledger has %d block_clustered events, want %d", counts[EvBlockClustered], len(comps))
	}
	// Events flush in ascending block order with the right sizes.
	bi := 0
	for _, ev := range events {
		if ev.Kind != EvBlockClustered {
			continue
		}
		if ev.Attrs["block"] == "" || ev.Attrs["size"] == "" {
			t.Fatalf("block_clustered event missing attrs: %+v", ev)
		}
		wantSize := 1
		if bi == 10 {
			wantSize = len(giant)
		}
		if ev.Attrs["size"] != strconv.Itoa(wantSize) {
			t.Errorf("block %d event size = %s, want %d", bi, ev.Attrs["size"], wantSize)
		}
		bi++
	}
}

// TestSweepHeightBucket pins the height-bucket labeling at its edges.
func TestSweepHeightBucket(t *testing.T) {
	cases := []struct {
		h    float64
		want string
	}{
		{0, "0.0-0.1"}, {0.05, "0.0-0.1"}, {0.1, "0.1-0.2"},
		{0.35, "0.3-0.4"}, {0.999, "0.9-1.0"}, {1.0, "1.0+"},
		{2.5, "1.0+"}, {-0.1, "0.0-0.1"},
	}
	for _, c := range cases {
		if got := sweepHeightBucket(c.h); got != c.want {
			t.Errorf("sweepHeightBucket(%v) = %q, want %q", c.h, got, c.want)
		}
	}
}

// TestMiningProgressPublication exercises the live status accumulator:
// snapshots are immutable, stage transitions and counters land in the
// published value, and finish marks it done.
func TestMiningProgressPublication(t *testing.T) {
	// The latest registration serves /miningz, so the status lookup
	// reads this accumulator's snapshots.
	current := func() *MiningStatus {
		ms, _ := telemetry.Status("mining").(*MiningStatus)
		if ms == nil {
			t.Fatal("no mining status published")
		}
		return ms
	}
	prog := newMiningProgress("blocked", 500)
	first := current()
	if first.Stage != "start" || first.Mode != "blocked" || first.Records != 500 {
		t.Errorf("initial status = %+v", first)
	}

	prog.setStage("blocks")
	prog.setBlocks(10)
	for i := 0; i < 10; i++ {
		prog.blockDone()
	}
	prog.setHeights(3)
	prog.addPairs(100, 200) // accumulates only; published by the next event
	prog.heightDone()
	cur := current()
	if cur == first {
		t.Fatal("publish mutated the previous snapshot instead of replacing it")
	}
	if cur.BlocksDone != 10 || cur.BlocksTotal != 10 || cur.HeightsDone != 1 ||
		cur.HeightsTotal != 3 || cur.PairsExact != 100 || cur.PairsPruned != 200 {
		t.Errorf("mid-run status = %+v", cur)
	}
	if first.BlocksDone != 0 {
		t.Error("earlier snapshot was mutated")
	}

	prog.finish()
	done := current()
	if !done.Done || done.Stage != "done" {
		t.Errorf("final status = %+v", done)
	}
	if done.String() == "" {
		t.Error("empty dashboard rendering")
	}
}
