package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pushadminer/internal/cluster"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/textmine"
	"pushadminer/internal/webeco"
)

// memoBlocksFor builds the blocked substrate (components + per-block
// dendrograms) for a feature set, the way clusterWPNsBlocked does.
func memoBlocksFor(fs *FeatureSet, linkage cluster.Linkage) []*blockDendrogram {
	comps, _ := blockedComponents(fs, 0)
	return buildBlockDendrograms(fs, comps, linkage, nil)
}

// tieHeavyFS builds a corpus of duplicated records, so block
// dendrograms are dominated by zero-distance tied merges — the shape
// most likely to expose segment-boundary (merges at exactly the
// candidate height) disagreements between the sweeps.
func tieHeavyFS(t *testing.T, seed int64, distinct, copies int) *FeatureSet {
	t.Helper()
	base := SynthWPNRecords(seed, distinct)
	recs := base[:0:0]
	for c := 0; c < copies; c++ {
		recs = append(recs, base...)
	}
	fs, err := ExtractFeatures(recs, FeatureOptions{
		Word2Vec: textmine.Word2VecConfig{Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// sweepsAgree asserts the two sweeps' outputs are bit-identical:
// per-block labelings, cut height, silhouette, and the stitched global
// labels.
func sweepsAgree(t *testing.T, name string, fs *FeatureSet,
	fullPer, memoPer [][]int, fullH, memoH, fullS, memoS float64, blocks []*blockDendrogram) {
	t.Helper()
	if fullH != memoH || fullS != memoS {
		t.Errorf("%s: memo cut %v/%v, full cut %v/%v", name, memoH, memoS, fullH, fullS)
	}
	if !reflect.DeepEqual(fullPer, memoPer) {
		t.Errorf("%s: per-block labelings differ", name)
	}
	full := stitchBlockedLabels(len(fs.Records), blocks, fullPer)
	memo := stitchBlockedLabels(len(fs.Records), blocks, memoPer)
	if !sameLabels(full, memo) {
		t.Errorf("%s: stitched labels differ", name)
	}
}

// TestSweepMemoParityMatrix pins the memoized pooled sweep to the
// unmemoized oracle (sweepBlockedCutFull): bit-identical labels, cut
// height and silhouette across seeds × linkages × block shapes. The
// sweeps are called directly so the matrix runs above-crossover code on
// validation-scale corpora.
func TestSweepMemoParityMatrix(t *testing.T) {
	linkages := []struct {
		name string
		l    cluster.Linkage
	}{
		{"average", cluster.Average},
		{"single", cluster.Single},
		{"complete", cluster.Complete},
	}
	shapes := []struct {
		name   string
		fs     func(t *testing.T, seed int64) *FeatureSet
		blocks func(fs *FeatureSet, linkage cluster.Linkage) []*blockDendrogram
	}{
		{"banded", func(t *testing.T, seed int64) *FeatureSet {
			return parityFS(t, seed, 150)
		}, memoBlocksFor},
		{"single-block", func(t *testing.T, seed int64) *FeatureSet {
			return parityFS(t, seed, 60)
		}, func(fs *FeatureSet, linkage cluster.Linkage) []*blockDendrogram {
			all := make([]int, len(fs.Records))
			for i := range all {
				all[i] = i
			}
			return buildBlockDendrograms(fs, [][]int{all}, linkage, nil)
		}},
		{"all-singleton", func(t *testing.T, seed int64) *FeatureSet {
			return parityFS(t, seed, 40)
		}, func(fs *FeatureSet, linkage cluster.Linkage) []*blockDendrogram {
			comps := make([][]int, len(fs.Records))
			for i := range comps {
				comps[i] = []int{i}
			}
			return buildBlockDendrograms(fs, comps, linkage, nil)
		}},
		{"tie-heavy", func(t *testing.T, seed int64) *FeatureSet {
			return tieHeavyFS(t, seed, 30, 4)
		}, memoBlocksFor},
	}

	for _, seed := range []int64{1, 2} {
		for _, lk := range linkages {
			for _, shape := range shapes {
				name := shape.name + "/" + lk.name
				fs := shape.fs(t, seed)
				blocks := shape.blocks(fs, lk.l)
				nLive := len(fs.Records)
				cands := pooledCutCandidates(blocks)
				farD := blockedFar(fs, blocks)
				const tol = 0.15

				fullPer, fullH, fullS := sweepBlockedCutFull(blocks, cands, farD, nLive, tol, nil)
				memoPer, memoH, memoS, ms := sweepBlockedCutMemo(blocks, cands, farD, nLive, tol, nil)
				sweepsAgree(t, name, fs, fullPer, memoPer, fullH, memoH, fullS, memoS, blocks)
				if len(cands) > 0 && ms.misses == 0 {
					t.Errorf("%s: cold sweep recorded no memo misses", name)
				}

				// Warm re-sweep over the same blocks: every cell serves
				// from the memo, output still bit-identical.
				warmPer, warmH, warmS, warm := sweepBlockedCutMemo(blocks, cands, farD, nLive, tol, nil)
				sweepsAgree(t, name+"/warm", fs, fullPer, warmPer, fullH, warmH, fullS, warmS, blocks)
				if warm.misses != 0 || warm.refreshes != 0 {
					t.Errorf("%s: warm sweep recomputed %d misses, %d refreshes; want 0",
						name, warm.misses, warm.refreshes)
				}
				if want := int64(len(cands)) * int64(len(blocks)); warm.hits != want {
					t.Errorf("%s: warm sweep hits = %d, want %d", name, warm.hits, want)
				}

				// A changed far estimate downgrades cached cells to
				// refreshes (labelings reused, contributions rescored) —
				// and the refreshed sweep must agree with a fresh full
				// sweep under the same farD.
				farD2 := farD + 0.01
				fullPer2, fullH2, fullS2 := sweepBlockedCutFull(blocks, cands, farD2, nLive, tol, nil)
				memoPer2, memoH2, memoS2, rf := sweepBlockedCutMemo(blocks, cands, farD2, nLive, tol, nil)
				sweepsAgree(t, name+"/refresh", fs, fullPer2, memoPer2, fullH2, memoH2, fullS2, memoS2, blocks)
				if rf.misses != 0 {
					t.Errorf("%s: farD change caused %d misses, want refreshes only", name, rf.misses)
				}
				if len(cands) > 0 && len(blocks) > 1 && rf.refreshes == 0 {
					t.Errorf("%s: farD change caused no refreshes", name)
				}
			}
		}
	}
}

// TestSweepMemoObservationParity asserts the memoized sweep's output is
// identical with every sink attached and with none, and that cold and
// warm sweeps ledger identically — heightSwept attrs are structural
// (segment crossings), not memo-state-dependent.
func TestSweepMemoObservationParity(t *testing.T) {
	fs := parityFS(t, 1, 150)
	nLive := len(fs.Records)
	const tol = 0.15

	plainBlocks := memoBlocksFor(fs, cluster.Average)
	cands := pooledCutCandidates(plainBlocks)
	farD := blockedFar(fs, plainBlocks)
	plainPer, plainH, plainS, _ := sweepBlockedCutMemo(plainBlocks, cands, farD, nLive, tol, nil)

	sweepOnce := func(blocks []*blockDendrogram) ([]telemetry.Event, [][]int, float64, float64) {
		led := telemetry.NewLedger()
		o := newMiningObs(telemetry.New(), nil, led, "blocked", nLive, true)
		per, h, s, _ := sweepBlockedCutMemo(blocks, cands, farD, nLive, tol, o)
		return led.Events(), per, h, s
	}
	obsBlocks := memoBlocksFor(fs, cluster.Average)
	coldEvents, obsPer, obsH, obsS := sweepOnce(obsBlocks)
	sweepsAgree(t, "observed", fs, plainPer, obsPer, plainH, obsH, plainS, obsS, plainBlocks)

	// The per-height sweep attribution is structural (segment crossings),
	// never memo-state-dependent: the warm re-sweep ledgers the exact
	// same height_swept stream even though it recomputes nothing.
	warmEvents, _, _, _ := sweepOnce(obsBlocks) // same blocks: memo warm
	onlyHeights := func(evs []telemetry.Event) []telemetry.Event {
		var out []telemetry.Event
		for _, ev := range evs {
			if ev.Kind == EvHeightSwept {
				out = append(out, ev)
			}
		}
		return out
	}
	if !reflect.DeepEqual(onlyHeights(coldEvents), onlyHeights(warmEvents)) {
		t.Error("cold and warm memoized sweeps produced different height_swept ledger events")
	}
	counts := kindCounts(coldEvents)
	if counts[EvHeightSwept] != len(cands) {
		t.Errorf("ledger has %d height_swept events, want %d", counts[EvHeightSwept], len(cands))
	}
	if counts[EvSweepMemo] != 1 {
		t.Errorf("ledger has %d sweep_memo events, want 1", counts[EvSweepMemo])
	}
	for _, ev := range coldEvents {
		if ev.Kind == EvHeightSwept && ev.Attrs["changed"] == "" {
			t.Fatalf("height_swept event missing changed attr: %+v", ev)
		}
	}
}

// TestBlockedFullSweepOptionParity runs the blocked path end to end
// above the validation-scale crossover and asserts the result equals
// the unmemoized oracle sweep over the same blocks — the
// dispatcher-level version of the parity matrix — and that an
// incremental stream (whose Reclusters run the memoized sweep, reusing
// memos across calls) converges exactly to both.
func TestBlockedFullSweepOptionParity(t *testing.T) {
	if testing.Short() {
		t.Skip("above-crossover corpus is slow; skipping in -short")
	}
	fs := parityFS(t, 1, blockedExactSweepMaxN+88) // 600: pooled sweep engages
	memo := ClusterWPNs(fs, ClusterOptions{Blocked: true})
	blocks := memoBlocksFor(fs, cluster.Average)
	fullPer, fullH, fullS := sweepBlockedCutFull(blocks, pooledCutCandidates(blocks), blockedFar(fs, blocks), len(fs.Records), 0.15, nil)
	if !sameLabels(memo.Labels, stitchBlockedLabels(len(fs.Records), blocks, fullPer)) {
		t.Error("memoized and full sweeps produced different labels")
	}
	if memo.CutHeight != fullH || memo.Silhouette != fullS {
		t.Errorf("memo cut %v/%v, full cut %v/%v",
			memo.CutHeight, memo.Silhouette, fullH, fullS)
	}

	inc, _ := streamAll(fs, ClusterOptions{}, 200)
	// One more Recluster with no adds: every block reuses its cached
	// dendrogram and its cut memos — pure hits (no refreshes; the far
	// estimate is unchanged), same result. SweepRescoredBlocks keeps
	// growing because it counts structural segment crossings, not
	// recompute work.
	before := inc.Stats()
	res := inc.Recluster()
	after := inc.Stats()
	if !sameLabels(res.Labels, memo.Labels) {
		t.Error("incremental stream did not converge to the batch labels")
	}
	if res.CutHeight != memo.CutHeight || res.Silhouette != memo.Silhouette {
		t.Errorf("incremental cut %v/%v, batch %v/%v",
			res.CutHeight, res.Silhouette, memo.CutHeight, memo.Silhouette)
	}
	if after.SweepMemoHits <= before.SweepMemoHits {
		t.Error("warm Recluster recorded no sweep memo hits")
	}
	if after.SweepMemoRefreshes != before.SweepMemoRefreshes {
		t.Errorf("warm Recluster recorded %d refreshes, want 0",
			after.SweepMemoRefreshes-before.SweepMemoRefreshes)
	}
}

// TestSweepBucketNoUnlistedKeys drives the sweep instruments with
// out-of-range and non-finite heights and asserts the snapshot carries
// only preresolved bucket keys — the satellite fix for heights >= 1.0
// (and NaN, whose float-to-int conversion is implementation-defined)
// minting unlisted keys.
func TestSweepBucketNoUnlistedKeys(t *testing.T) {
	for _, c := range []struct {
		h    float64
		want string
	}{
		{math.NaN(), "1.0+"},
		{math.Inf(1), "1.0+"},
		{math.Inf(-1), "0.0-0.1"},
		{math.Nextafter(1, 0), "0.9-1.0"},
		{math.Nextafter(1, 2), "1.0+"},
		{1.7, "1.0+"},
	} {
		if got := sweepHeightBucket(c.h); got != c.want {
			t.Errorf("sweepHeightBucket(%v) = %q, want %q", c.h, got, c.want)
		}
	}

	reg := telemetry.New()
	o := newMiningObs(reg, nil, nil, "blocked", 2, true)
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 1.0, 2.5, 0.55} {
		o.sweepRescored(h, o.clock())
		o.heightSwept(h, 2, true, 0.5, 1, 1, o.clock())
	}
	listed := map[string]bool{}
	for _, b := range sweepBucketNames {
		listed[b] = true
	}
	snap := reg.Snapshot()
	for _, fam := range []string{"mining_sweep_ns", "mining_sweep_blocks"} {
		for key := range snap.Families[fam] {
			if !listed[key] {
				t.Errorf("%s minted unlisted key %q", fam, key)
			}
		}
	}
}

// TestSweepMemoKParityInversionCorpus pins memo-vs-full k agreement on
// the study corpus (seed 7, scale 0.03, 3 days) that was the smallest
// known reproduction of near-tie merge inversions: float32 rounding
// left a consuming merge below its creator, the sort in
// cluster.sortMerges put it first, and the renumbering substituted leaf
// 0 for the missing operand, a same-component no-op merge that made a
// merge-count k overstate the cluster count. sortMerges now raises such
// a merge to its creator's height, so the arming check logs "disarmed"
// and the parity assertions remain as a regression check, with the
// ledger comparison the bug originally escaped through: the memoized
// sweep's height_swept events against the unmemoized oracle's.
func TestSweepMemoKParityInversionCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("study-corpus build is slow; skipping in -short")
	}
	cfg := StudyConfig{
		Eco:              webeco.Config{Seed: 7, Scale: 0.03},
		CollectionWindow: 3 * 24 * time.Hour,
	}
	cfg.Pipeline.Cluster.Blocked = true
	study, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	fs := study.Analysis.FS
	nLive := len(fs.Records)
	const tol = 0.15

	// Independent block sets per mode: the full sweep must not observe
	// (or warm) the memo sweep's cached cells.
	fullBlocks := memoBlocksFor(fs, cluster.Average)
	memoBlocks := memoBlocksFor(fs, cluster.Average)
	cands := pooledCutCandidates(fullBlocks)
	farD := blockedFar(fs, fullBlocks)

	// Soft arming check: the regression is only exercised while the
	// corpus contains a duplicate-child (no-op merge) block, which the
	// sortMerges fix removed. The parity assertions below stay valid —
	// just no longer load-bearing.
	armed := 0
	for _, bd := range fullBlocks {
		seen := make(map[int]int)
		dup := false
		for _, m := range bd.dend.Merges() {
			seen[m.A]++
			seen[m.B]++
			if seen[m.A] > 1 || seen[m.B] > 1 {
				dup = true
			}
		}
		if dup {
			armed++
		}
	}
	if armed == 0 {
		t.Log("corpus carries no no-op-merge block; k-parity test is disarmed (sortMerges keeps every creator first)")
	}

	fullLed, memoLed := telemetry.NewLedger(), telemetry.NewLedger()
	fullPer, fullH, fullS := sweepBlockedCutFull(fullBlocks, cands, farD, nLive, tol, newMiningObs(nil, nil, fullLed, "blocked", nLive, true))
	memoPer, memoH, memoS, _ := sweepBlockedCutMemo(memoBlocks, cands, farD, nLive, tol, newMiningObs(telemetry.New(), nil, memoLed, "blocked", nLive, true))
	fullEvents, memoEvents := fullLed.Events(), memoLed.Events()
	sweepsAgree(t, "inversion corpus", fs, fullPer, memoPer, fullH, memoH, fullS, memoS, fullBlocks)

	// height_swept semantic attrs (height, k, valid, silhouette) must
	// match exactly; changed/scored_pairs legitimately differ — they
	// report actual per-mode work, not the cut.
	semantic := func(evs []telemetry.Event) []map[string]string {
		var out []map[string]string
		for _, ev := range evs {
			if ev.Kind != EvHeightSwept {
				continue
			}
			attrs := make(map[string]string, len(ev.Attrs))
			for k, v := range ev.Attrs {
				if k == "changed" || k == "scored_pairs" {
					continue
				}
				attrs[k] = v
			}
			out = append(out, attrs)
		}
		return out
	}
	fullSem, memoSem := semantic(fullEvents), semantic(memoEvents)
	if len(fullSem) != len(cands) || len(memoSem) != len(cands) {
		t.Fatalf("height_swept counts: full %d, memo %d, want %d", len(fullSem), len(memoSem), len(cands))
	}
	for i := range fullSem {
		if !reflect.DeepEqual(fullSem[i], memoSem[i]) {
			t.Errorf("height_swept[%d] diverges between modes:\n  full: %v\n  memo: %v", i, fullSem[i], memoSem[i])
		}
	}
}
