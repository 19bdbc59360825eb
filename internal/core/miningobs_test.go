package core

import (
	"strconv"
	"testing"

	"pushadminer/internal/telemetry"
)

// TestMiningObservabilityDisabled pins the mining plane's disabled-path
// contract, mirroring the fleet plane's: with no sink attached there is
// no observer, and every method of the nil observer is a no-op with
// zero allocations, so fully un-observed clustering pays nothing for
// the instrumentation points threaded through it.
func TestMiningObservabilityDisabled(t *testing.T) {
	for _, batch := range []bool{false, true} {
		if o := newMiningObs(nil, nil, nil, "blocked", 10, batch); o != nil {
			t.Errorf("observer with no sinks (batch %v) = %p, want nil", batch, o)
		}
	}
	var o *miningObs
	labels := []int{0, 1, 1}
	if n := testing.AllocsPerRun(100, func() {
		done := o.stage("cut")
		done()
		start := o.clock()
		o.clustering(500)
		o.pairs(500, 100)
		o.unionTally(blockedTally{gateChecked: 4, edges: 1})
		o.buildingBlocks(5)
		o.blockBuilt(7, start)
		o.blockLinked(3, 7, nil)
		o.sweeping(64)
		o.sweepRescored(0.25, start)
		o.heightSwept(0.25, 4, true, 0.8, 3, 21, start)
		o.sweepMemo(sweepMemoStats{hits: 10, misses: 5})
		o.cutChosen(0.25, labels, 0.8)
		o.reclustered(5, 3, 2, 9)
		o.finish()
	}); n != 0 {
		t.Errorf("disabled mining-plane path allocates %v per run, want 0", n)
	}
	if !o.clock().IsZero() {
		t.Error("the nil observer read the clock")
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
	blocks := buildBlockDendrograms(fs, comps, 0, newMiningObs(reg, nil, led, "blocked", n, true))
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

// TestMiningProgressPublication exercises the live status: snapshots
// are immutable, stage transitions and counters land in the published
// value, and finish marks it done.
func TestMiningProgressPublication(t *testing.T) {
	o := newMiningObs(nil, nil, telemetry.NewLedger(), "blocked", 500, true)
	first := currentMiningStatus(t)
	if first.Stage != "start" || first.Mode != "blocked" || first.Records != 500 {
		t.Errorf("initial status = %+v", first)
	}

	o.stage("blocks")()
	o.buildingBlocks(10)
	for i := 0; i < 10; i++ {
		o.blockBuilt(1, o.clock())
	}
	o.sweeping(3)
	o.pairs(500, 100) // accumulates only; published by the next event
	o.heightSwept(0.5, 2, true, 0.1, 1, 1, o.clock())
	cur := currentMiningStatus(t)
	if cur == first {
		t.Fatal("publish mutated the previous snapshot instead of replacing it")
	}
	if cur.Stage != "blocks" || cur.BlocksDone != 10 || cur.BlocksTotal != 10 || cur.HeightsDone != 1 ||
		cur.HeightsTotal != 3 || cur.PairsExact != 100 || cur.PairsPruned != 124650 || cur.SweepBlocksRescored != 1 {
		t.Errorf("mid-run status = %+v", cur)
	}
	if first.BlocksDone != 0 {
		t.Error("earlier snapshot was mutated")
	}

	o.finish()
	done := currentMiningStatus(t)
	if !done.Done || done.Stage != "done" {
		t.Errorf("final status = %+v", done)
	}
	if done.String() == "" {
		t.Error("empty dashboard rendering")
	}
}

// TestStreamPublishesMiningStatus checks that a stream with a registry
// attached serves /miningz: each Recluster round ends with a done
// status over the records added so far, and the status agrees with the
// round's own counts.
func TestStreamPublishesMiningStatus(t *testing.T) {
	fs := parityFS(t, 1, 150)
	reg := telemetry.New()
	inc := NewIncrementalClusterer(fs, ClusterOptions{Blocked: true, Metrics: reg})
	for i := 0; i < 100; i++ {
		inc.Add(i)
	}
	inc.Recluster()
	mid := currentMiningStatus(t)
	if !mid.Done || mid.Records != 100 || mid.Mode != "blocked" {
		t.Errorf("status after the first round = %+v, want done over 100 records", mid)
	}
	for i := 100; i < len(fs.Records); i++ {
		inc.Add(i)
	}
	inc.Recluster()
	final := currentMiningStatus(t)
	if final == mid {
		t.Fatal("the second round published no status")
	}
	st := inc.Stats()
	if !final.Done || final.Stage != "done" || final.Records != len(fs.Records) {
		t.Errorf("final status = %+v, want done over %d records", final, len(fs.Records))
	}
	if final.BlocksDone != final.BlocksTotal || final.HeightsDone != final.HeightsTotal || final.HeightsTotal == 0 {
		t.Errorf("final status = %+v, want every block and height of the round done", final)
	}
	if final.SweepMemoHits != st.SweepMemoHits || final.SweepBlocksRescored != st.SweepRescoredBlocks {
		t.Errorf("status memo hits %d, rescored %d; stats %d, %d",
			final.SweepMemoHits, final.SweepBlocksRescored, st.SweepMemoHits, st.SweepRescoredBlocks)
	}
}

// currentMiningStatus returns the status /miningz serves: the latest
// observer's last publication.
func currentMiningStatus(t *testing.T) *MiningStatus {
	t.Helper()
	ms, _ := telemetry.Status("mining").(*MiningStatus)
	if ms == nil {
		t.Fatal("no mining status published")
	}
	return ms
}
