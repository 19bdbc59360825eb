// Mining benchmark suite: the §5.1.1 clustering hot path measured at
// two corpus sizes on both clustering routes — the cached-kernel exact
// route and the sub-quadratic LSH-blocked one — plus a large-n run of
// the blocked route alone at sizes where the O(n²) route is infeasible.
// scripts/bench.sh runs these and records BENCH_mining.json so the perf
// trajectory is tracked across PRs; the parity tests in internal/core
// guarantee the routes agree before the speedup counts.
//
// Run with:
//
//	make bench
package pushadminer_test

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"

	"pushadminer/internal/cluster"
	"pushadminer/internal/core"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/textmine"
)

// miningSizes are the benchmarked corpus sizes. The small size is the
// verify.sh compile-smoke target; the large one is where the O(n²)
// savings show (the paper mines tens of thousands of WPNs).
var miningSizes = []int{200, 2000}

var (
	miningMu  sync.Mutex
	miningFSs = map[int]*core.FeatureSet{}
)

// miningFeatures builds (once per size) the synthetic-campaign corpus
// and its FeatureSet, so benchmarks measure clustering, not word2vec
// training.
func miningFeatures(b *testing.B, n int) *core.FeatureSet {
	b.Helper()
	miningMu.Lock()
	defer miningMu.Unlock()
	if fs, ok := miningFSs[n]; ok {
		return fs
	}
	fs, err := core.ExtractFeatures(core.SynthWPNRecords(11, n), core.FeatureOptions{
		Word2Vec: textmine.Word2VecConfig{Seed: 11},
	})
	if err != nil {
		b.Fatal(err)
	}
	miningFSs[n] = fs
	return fs
}

// BenchmarkClusterWPNs measures the full first-stage clustering
// (distance matrix, agglomeration, silhouette-chosen cut) end to end.
//
// Each mode also reports a per-stage wall-time breakdown
// ("<stage>-ns/op": distance_matrix and linkage on the exact route,
// blocks and block_linkage on the blocked one, then cut, which holds
// the silhouette sweep on both) taken from one
// telemetry-instrumented run outside the timed loop, so
// BENCH_mining.json records where the time goes without the counters
// perturbing the headline ns/op.
func BenchmarkClusterWPNs(b *testing.B) {
	for _, n := range miningSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fs := miningFeatures(b, n)
			for _, mode := range []struct {
				name string
				opts core.ClusterOptions
			}{
				{"cached", core.ClusterOptions{}},
				{"blocked", core.ClusterOptions{Blocked: true}},
			} {
				mode := mode
				b.Run(mode.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res := core.ClusterWPNs(fs, mode.opts)
						benchSink = res.Silhouette
					}
					b.StopTimer()
					reg := telemetry.New()
					opts := mode.opts
					opts.Metrics = reg
					benchSink = core.ClusterWPNs(fs, opts).Silhouette
					stages := reg.Snapshot().Families["mining_stage_ns"]
					for _, s := range []string{"distance_matrix", "linkage", "blocks", "block_linkage", "cut"} {
						if ns := stages[s]; ns > 0 {
							b.ReportMetric(float64(ns), s+"-ns/op")
						}
					}
					b.StartTimer()
				})
			}
		})
	}
}

// BenchmarkClusterWPNsBlockedLarge runs the blocked path alone at
// corpus sizes where the O(n²) modes are infeasible (the exact matrix
// at n=50k would need 2.5G soft-cosine evaluations and ~5 GB
// condensed storage): LSH blocking keeps the pair work at Σ|B|², which
// the synthetic campaign structure holds near-linear in n. This is the
// measurement behind the "streaming mining" claim — the paper-scale
// corpus clusters in seconds on the blocked path.
//
// Set BENCH_XL=1 to add an n=100000 point.
func BenchmarkClusterWPNsBlockedLarge(b *testing.B) {
	sizes := []int{50000}
	if os.Getenv("BENCH_XL") != "" {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d/blocked", n), func(b *testing.B) {
			fs := miningFeatures(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := core.ClusterWPNs(fs, core.ClusterOptions{Blocked: true})
				benchSink = res.Silhouette
			}
			b.StopTimer()
			reg := telemetry.New()
			benchSink = core.ClusterWPNs(fs, core.ClusterOptions{Blocked: true, Metrics: reg}).Silhouette
			snap := reg.Snapshot()
			for _, s := range []string{"blocks", "block_linkage", "cut"} {
				if ns := snap.Families["mining_stage_ns"][s]; ns > 0 {
					b.ReportMetric(float64(ns), s+"-ns/op")
				}
			}
			if pairs := snap.Families["cluster_pairs"]; pairs != nil {
				b.ReportMetric(float64(pairs["exact"]), "exact-pairs")
			}
			// Cut-sweep attribution: wall time per candidate-height
			// bucket ("sweep_<bucket>-ns/op"), folded by bench.sh into a
			// sweep_ns object so BENCH_mining.json shows where the sweep
			// spends its time. Zero buckets (heights the corpus never
			// sampled) are skipped.
			if sweep := snap.Families["mining_sweep_ns"]; sweep != nil {
				buckets := make([]string, 0, len(sweep))
				for k := range sweep {
					buckets = append(buckets, k)
				}
				sort.Strings(buckets)
				for _, k := range buckets {
					if ns := sweep[k]; ns > 0 {
						b.ReportMetric(float64(ns), "sweep_"+k+"-ns/op")
					}
				}
			}
			// Memo accounting: how many (height, block) cells the sweep
			// served from cache vs how many blocks it actually crossed
			// and summed per height — bench.sh folds these into
			// sweep_memo_hits / sweep_blocks_rescored so the speedup is
			// attributable, not just observed.
			if memo := snap.Families["mining_sweep_memo"]; memo != nil {
				b.ReportMetric(float64(memo["hit"]), "memo-hits")
			}
			if blocks := snap.Families["mining_sweep_blocks"]; blocks != nil {
				var rescored int64
				for _, v := range blocks {
					rescored += v
				}
				b.ReportMetric(float64(rescored), "blocks-rescored")
			}
			b.StartTimer()
		})
	}
}

// BenchmarkSoftCosineMatrix isolates pairwise distance-matrix
// construction on the cached kernel.
func BenchmarkSoftCosineMatrix(b *testing.B) {
	for _, n := range miningSizes {
		b.Run(fmt.Sprintf("n=%d/cached", n), func(b *testing.B) {
			fs := miningFeatures(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = cluster.Compute(n, fs.Distance)
			}
		})
	}
}
