// Large-n mining benchmark: the blocked clustering route alone at a
// corpus size where the O(n²) exact route is infeasible. It is not a
// gate; scripts/profile_mining.sh (make profile-mining) runs it under
// the CPU and heap profilers. The repo's benchmark is bench/, and its
// CI gate is TestWorkCounts.
package pushadminer_test

import (
	"testing"

	"pushadminer/internal/core"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/textmine"
)

// BenchmarkClusterWPNsBlockedLarge clusters n = 50k synthetic-campaign
// records on the blocked route. The exact matrix at this size would need
// 1.25G soft-cosine evaluations and ~5 GB of condensed storage; LSH
// blocking keeps the pair work at Σ|B|², which the synthetic campaign
// structure holds near-linear in n.
//
// Beside ns/op it reports, from one instrumented run outside the timed
// loop: the stage wall times ("<stage>-ns/op"), the exact pairs
// computed, the cut sweep's summed worker time per candidate-height
// bucket ("sweep_<bucket>-ns/op"), the (height, block) cells the sweep served
// from its memo ("memo-hits") and the blocks it re-scored
// ("blocks-rescored").
func BenchmarkClusterWPNsBlockedLarge(b *testing.B) {
	fs, err := core.ExtractFeatures(core.SynthWPNRecords(11, 50000), core.FeatureOptions{
		Word2Vec: textmine.Word2VecConfig{Seed: 11},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = core.ClusterWPNs(fs, core.ClusterOptions{Blocked: true}).Silhouette
	}
	b.StopTimer()
	reg := telemetry.New()
	benchSink = core.ClusterWPNs(fs, core.ClusterOptions{Blocked: true, Metrics: reg}).Silhouette
	snap := reg.Snapshot()
	for _, s := range []string{"blocks", "block_linkage", "cut"} {
		b.ReportMetric(float64(snap.Families["mining_stage_ns"][s]), s+"-ns/op")
	}
	b.ReportMetric(float64(snap.Families["cluster_pairs"]["exact"]), "exact-pairs")
	for bucket, ns := range snap.Families["mining_sweep_ns"] {
		if ns > 0 {
			b.ReportMetric(float64(ns), "sweep_"+bucket+"-ns/op")
		}
	}
	b.ReportMetric(float64(snap.Families["mining_sweep_memo"]["hit"]), "memo-hits")
	var rescored int64
	for _, v := range snap.Families["mining_sweep_blocks"] {
		rescored += v
	}
	b.ReportMetric(float64(rescored), "blocks-rescored")
}
