// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation section, plus the follow-up experiments and the ablations
// DESIGN.md calls out. Each benchmark regenerates its artifact and, on
// the first run, logs the measured values next to the paper's (see
// EXPERIMENTS.md for the recorded comparison).
//
// Run with:
//
//	go test -bench=. -benchmem
package pushadminer_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pushadminer"
	"pushadminer/internal/cluster"
	"pushadminer/internal/core"
	"pushadminer/internal/textmine"
	"pushadminer/internal/webeco"
)

// benchStudy is the shared study every artifact regenerates from; the
// crawl itself is measured separately by BenchmarkFullStudy.
var (
	benchOnce  sync.Once
	benchS     *pushadminer.Study
	benchErr   error
	benchScale = 0.02
)

func study(b *testing.B) *pushadminer.Study {
	b.Helper()
	benchOnce.Do(func() {
		benchS, benchErr = pushadminer.RunStudy(pushadminer.StudyConfig{
			Eco: pushadminer.EcosystemConfig{Seed: 2, Scale: benchScale},
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchS
}

func logOnce(b *testing.B, t *pushadminer.Table) {
	if b.N >= 1 {
		b.Logf("\n%s", t)
	}
}

// BenchmarkFullStudy measures the complete reproduction: ecosystem
// generation, desktop + mobile crawls over 14 simulated days, and the
// full mining pipeline.
func BenchmarkFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := pushadminer.RunStudy(pushadminer.StudyConfig{
			Eco: pushadminer.EcosystemConfig{Seed: int64(100 + i), Scale: 0.005},
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkTable1_SeedDiscovery regenerates Table 1 (code-search URLs
// and notification permission requests per seed keyword).
func BenchmarkTable1_SeedDiscovery(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.Table1(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkTable2_AlexaRanks regenerates Table 2 (rank buckets of NPR
// domains).
func BenchmarkTable2_AlexaRanks(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.Table2(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkTable3_Summary regenerates Table 3 (summary of findings,
// including the 51%-malicious headline).
func BenchmarkTable3_Summary(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.Table3(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkTable4_Stages regenerates Table 4 (results at clustering
// stages) — the full pipeline rerun over the collected records, since
// the table is the pipeline's stage counters.
func BenchmarkTable4_Stages(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.RunPipeline(s.Records, core.PipelineOptions{
			Services: []core.BlocklistLookup{
				core.ServiceLookup{S: s.Eco.VT},
				core.ServiceLookup{S: s.Eco.GSB},
			},
			Scans: []time.Time{s.Eco.Clock.Now()},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = a
	}
	b.StopTimer()
	logOnce(b, pushadminer.Table4(s))
}

// BenchmarkTable5_Singletons regenerates Table 5 (singleton cluster
// examples after meta clustering).
func BenchmarkTable5_Singletons(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.Table5(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkTable6_AdBlockers regenerates Table 6 (ad blockers vs SW
// push-ad requests): every SW request replayed through the filter
// engine under both visibility models.
func BenchmarkTable6_AdBlockers(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.Table6(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkFigure4_ClusterExamples regenerates Figure 4's cluster
// archetypes (malicious campaign, duplicate-ads campaign, single-source
// alerts, singleton).
func BenchmarkFigure4_ClusterExamples(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.Figure4Table(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkFigure5_MetaClusters regenerates Figure 5's meta-cluster
// examples (bipartite components over landing domains).
func BenchmarkFigure5_MetaClusters(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.Figure5Table(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkFigure6_AdNetworkDistribution regenerates Figure 6 (WPN ads
// and malicious WPN ads per ad network).
func BenchmarkFigure6_AdNetworkDistribution(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.Figure6Table(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkRecentMeasurements regenerates the §6.3.3 revisit experiment
// (paper: 300 sites, 305 notifications, 198 ads, 48 malicious, VT
// catches 15).
func BenchmarkRecentMeasurements(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var rr *pushadminer.RevisitResult
	for i := 0; i < b.N; i++ {
		var err error
		rr, err = pushadminer.RunRevisit(s, 300, 30*24*time.Hour, 5*24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("revisit: %+v (paper: 300 revisited, 305 WPNs, 198 ads, 48 malicious, 15 VT-flagged)", rr)
}

// BenchmarkPilotWaitTimes regenerates the §6.1.2 pilot (98% of first
// notifications within 15 minutes).
func BenchmarkPilotWaitTimes(b *testing.B) {
	var pr *pushadminer.PilotResult
	for i := 0; i < b.N; i++ {
		eco, err := pushadminer.NewEcosystem(pushadminer.EcosystemConfig{Seed: int64(40 + i), Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		pr, err = pushadminer.RunPilot(eco, 96*time.Hour, 7*24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		eco.Close()
	}
	b.StopTimer()
	b.Logf("%s (paper: 98%% within 15 minutes)\n%s", pr, pushadminer.PilotCDFTable(pr))
}

// BenchmarkDoublePermission regenerates the §8 double-permission check
// (paper: 49 of 200 revisited sites).
func BenchmarkDoublePermission(b *testing.B) {
	var res *pushadminer.DoublePermissionResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pushadminer.RunDoublePermissionCheck(int64(60+i), 0.005, 0.25, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("double permission: %d of %d (paper: 49 of 200)", res.DoublePermission, res.Checked)
}

// BenchmarkQuietUI regenerates the §6.4 Chrome-80 quiet-UI revisit
// (paper: all revisited sites could still prompt).
func BenchmarkQuietUI(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var res *pushadminer.QuietUIResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pushadminer.RunQuietUICheck(s, 300)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("quiet UI: %d of %d still prompted (paper: all)", res.StillPrompted, res.Revisited)
}

// BenchmarkAdvertiserCost regenerates the §3 ethics cost estimation
// (paper: max $1.12, avg $0.04 per advertiser).
func BenchmarkAdvertiserCost(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.CostTable(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkAblationClusterCut compares the silhouette-chosen
// conservative cut against fixed dendrogram cuts (design decision 1 in
// DESIGN.md).
func BenchmarkAblationClusterCut(b *testing.B) {
	s := study(b)
	for _, cut := range []struct {
		name string
		opts core.ClusterOptions
	}{
		{"conservative-silhouette", core.ClusterOptions{}},
		{"best-silhouette", core.ClusterOptions{ConservativeTol: -1}},
		{"fixed-0.15", core.ClusterOptions{FixedCutHeight: 0.15}},
		{"fixed-0.40", core.ClusterOptions{FixedCutHeight: 0.40}},
		{"single-linkage", core.ClusterOptions{Linkage: cluster.Single}},
		{"complete-linkage", core.ClusterOptions{Linkage: cluster.Complete}},
	} {
		cut := cut
		b.Run(cut.name, func(b *testing.B) {
			var rep core.Report
			for i := 0; i < b.N; i++ {
				a, err := core.RunPipeline(s.Records, core.PipelineOptions{
					Cluster: cut.opts,
					Services: []core.BlocklistLookup{
						core.ServiceLookup{S: s.Eco.VT}, core.ServiceLookup{S: s.Eco.GSB},
					},
					Scans: []time.Time{s.Eco.Clock.Now()},
				})
				if err != nil {
					b.Fatal(err)
				}
				rep = a.Report
			}
			b.StopTimer()
			b.Logf("%s: clusters=%d singletons=%d campaigns=%d ads=%d malicious=%d cut=%.3f",
				cut.name, rep.Clusters, rep.Singletons, rep.AdCampaignClusters,
				rep.TotalAds, rep.TotalMaliciousAds, rep.CutHeight)
		})
	}
}

// BenchmarkAblationFeatures compares the full feature set (soft-cosine
// text + URL-path Jaccard) against each alone (design decision 2).
func BenchmarkAblationFeatures(b *testing.B) {
	s := study(b)
	for _, f := range []struct {
		name string
		opts core.FeatureOptions
	}{
		{"text+path", core.FeatureOptions{}},
		{"text-only", core.FeatureOptions{DisablePath: true}},
		{"path-only", core.FeatureOptions{DisableText: true}},
		{"tfidf-text+path", core.FeatureOptions{TFIDF: true}},
	} {
		f := f
		b.Run(f.name, func(b *testing.B) {
			var rep core.Report
			for i := 0; i < b.N; i++ {
				a, err := core.RunPipeline(s.Records, core.PipelineOptions{
					Features: f.opts,
					Services: []core.BlocklistLookup{
						core.ServiceLookup{S: s.Eco.VT}, core.ServiceLookup{S: s.Eco.GSB},
					},
					Scans: []time.Time{s.Eco.Clock.Now()},
				})
				if err != nil {
					b.Fatal(err)
				}
				rep = a.Report
			}
			b.StopTimer()
			b.Logf("%s: clusters=%d campaigns=%d ads=%d malicious=%d",
				f.name, rep.Clusters, rep.AdCampaignClusters, rep.TotalAds, rep.TotalMaliciousAds)
		})
	}
}

// BenchmarkAblationStages toggles label propagation and meta-clustering
// (design decisions 1 and 3).
func BenchmarkAblationStages(b *testing.B) {
	s := study(b)
	for _, st := range []struct {
		name string
		mod  func(*core.PipelineOptions)
	}{
		{"full", func(*core.PipelineOptions) {}},
		{"no-propagation", func(o *core.PipelineOptions) { o.DisablePropagation = true }},
		{"no-meta", func(o *core.PipelineOptions) { o.DisableMeta = true }},
	} {
		st := st
		b.Run(st.name, func(b *testing.B) {
			var rep core.Report
			for i := 0; i < b.N; i++ {
				opts := core.PipelineOptions{
					Services: []core.BlocklistLookup{
						core.ServiceLookup{S: s.Eco.VT}, core.ServiceLookup{S: s.Eco.GSB},
					},
					Scans: []time.Time{s.Eco.Clock.Now()},
				}
				st.mod(&opts)
				a, err := core.RunPipeline(s.Records, opts)
				if err != nil {
					b.Fatal(err)
				}
				rep = a.Report
			}
			b.StopTimer()
			b.Logf("%s: ads=%d knownMal=%d addMal=%d malicious=%d",
				st.name, rep.TotalAds, rep.TotalKnownMal, rep.TotalAddMal, rep.TotalMaliciousAds)
		})
	}
}

// BenchmarkEvasionExperiment contrasts crawls with operator domain
// rotation off and on (§5.2's evasion behaviour) under aggressive
// blocklists.
func BenchmarkEvasionExperiment(b *testing.B) {
	var exp *pushadminer.EvasionExperiment
	for i := 0; i < b.N; i++ {
		var err error
		exp, err = pushadminer.RunEvasionExperiment(int64(2+i), 0.004)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("\n%s", exp.Table())
}

// BenchmarkTrackingCheck verifies the §8 cookie-tracking mitigation
// (one container per URL).
func BenchmarkTrackingCheck(b *testing.B) {
	var tc *pushadminer.TrackingCheck
	for i := 0; i < b.N; i++ {
		var err error
		tc, err = pushadminer.RunTrackingCheck(int64(1+i), 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("\n%s", tc.Table())
}

// BenchmarkScamBreakdown classifies the study's malicious ads into scam
// types (the §6.3.2 qualitative breakdown).
func BenchmarkScamBreakdown(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var t *pushadminer.Table
	for i := 0; i < b.N; i++ {
		t = pushadminer.ScamBreakdownTable(s)
	}
	b.StopTimer()
	logOnce(b, t)
}

// BenchmarkDetector trains and evaluates the future-work real-time
// malicious-WPN detector on the study corpus.
func BenchmarkDetector(b *testing.B) {
	s := study(b)
	b.ResetTimer()
	var rep *pushadminer.DetectorReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = pushadminer.TrainDetector(s, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("detector held-out: F1=%.3f AUC=%.3f; vs ground truth: F1=%.3f AUC=%.3f",
		rep.Test.F1(), rep.Test.AUC, rep.TruthTest.F1(), rep.TruthTest.AUC)
}

// BenchmarkWord2VecTraining times word2vec training alone on the
// mine-batch workload's first seed-11 input (15,000 synthetic records),
// tokenized outside the timer. tokens/s counts every corpus token of
// every epoch, kept or subsampled away.
func BenchmarkWord2VecTraining(b *testing.B) {
	recs := core.SynthWPNRecords(11001, 15000)
	docs := make([][]string, len(recs))
	tokens := 0
	for i, r := range recs {
		docs[i] = textmine.Tokenize(r.Title + " " + r.Body)
		tokens += len(docs[i])
	}
	cfg := textmine.Word2VecConfig{Epochs: 5} // the default, named for tokens/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emb, err := textmine.TrainWord2Vec(docs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = emb
	}
	b.ReportMetric(float64(tokens*cfg.Epochs*b.N)/b.Elapsed().Seconds(), "tokens/s")
}

// BenchmarkCrawlOnly measures the data-collection module alone.
func BenchmarkCrawlOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eco, err := webeco.New(webeco.Config{Seed: int64(80 + i), Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		pr, err := pushadminer.RunPilot(eco, 15*time.Minute, 7*24*time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		_ = pr
		eco.Close()
	}
}

var benchSink interface{}

// BenchmarkExportRoundTrip measures record serialization (the
// wpncrawl/wpnanalyze interchange).
func BenchmarkExportRoundTrip(b *testing.B) {
	s := study(b)
	export := core.ExportFromStudy(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := core.WriteExport(&buf, export); err != nil {
			b.Fatal(err)
		}
		benchSink = buf.n
	}
	b.StopTimer()
	b.Logf("export size ≈ %d bytes for %d records", sinkInt(), len(export.Records))
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func sinkInt() int {
	if n, ok := benchSink.(int); ok {
		return n
	}
	return 0
}

var _ = fmt.Sprint // keep fmt imported for debug convenience
