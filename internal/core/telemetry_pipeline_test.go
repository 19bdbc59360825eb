package core

import (
	"testing"

	"pushadminer/internal/telemetry"
	"pushadminer/internal/textmine"
)

// TestPipelineStageTelemetry runs the full mining pipeline with metrics
// and tracing attached and checks that every stage reported wall-time,
// the stage spans hang off one pipeline root, and the result is
// untouched by observation.
func TestPipelineStageTelemetry(t *testing.T) {
	reg := telemetry.New()
	tracer := telemetry.NewTracer(nil)

	var plain, observed *Analysis
	runTestPipelineInto(t, &plain, nil)
	runTestPipelineInto(t, &observed, func(po *PipelineOptions) {
		po.Metrics = reg
		po.Tracer = tracer
	})

	// Observation must not change the analysis.
	if plain.Report != observed.Report {
		t.Errorf("report changed under telemetry:\nplain:    %+v\nobserved: %+v", plain.Report, observed.Report)
	}

	// Every declared mining stage has a wall-time key, even stages that
	// did not run standalone (golden key-set stability).
	snap := reg.Snapshot()
	stages := snap.Families["mining_stage_ns"]
	for _, s := range miningStages {
		if _, ok := stages[s]; !ok {
			t.Errorf("mining_stage_ns missing stage key %q (have %v)", s, stages)
		}
	}
	// Stages that always do real work must have nonzero wall-time.
	for _, s := range []string{"featurize", "distance_matrix", "linkage", "cut", "label"} {
		if stages[s] == 0 {
			t.Errorf("mining_stage_ns[%s] = 0; stage ran but recorded no time", s)
		}
	}

	// Span structure: exactly one "pipeline" root, stage spans beneath
	// it (clustering stages may nest via the same parent).
	spans := tracer.Spans()
	var rootID telemetry.SpanID
	byName := map[string]int{}
	for _, sp := range spans {
		byName[sp.Name]++
		if sp.Name == "pipeline" {
			if sp.Parent != 0 {
				t.Errorf("pipeline span has parent %d, want root", sp.Parent)
			}
			rootID = sp.ID
		}
	}
	if byName["pipeline"] != 1 {
		t.Fatalf("want exactly 1 pipeline root span, got %d (%v)", byName["pipeline"], byName)
	}
	for _, name := range []string{"filter", "featurize", "distance_matrix", "linkage", "cut", "label", "propagate", "meta"} {
		if byName[name] != 1 {
			t.Errorf("stage span %q count = %d, want 1", name, byName[name])
		}
	}
	for _, sp := range spans {
		if sp.ID == rootID {
			continue
		}
		if sp.Parent != rootID {
			t.Errorf("stage span %q parent = %d, want pipeline root %d", sp.Name, sp.Parent, rootID)
		}
		if sp.End.Before(sp.Start) {
			t.Errorf("stage span %q ends before it starts", sp.Name)
		}
	}
}

// runTestPipelineInto adapts runTestPipeline for reuse across variants.
func runTestPipelineInto(t *testing.T, out **Analysis, mod func(*PipelineOptions)) {
	t.Helper()
	a, _ := runTestPipeline(t, func(po *PipelineOptions) {
		if mod != nil {
			mod(po)
		}
	})
	*out = a
}

// TestClusterPairAccounting: every unordered pair must be classified
// exactly once as exact or pruned — under a fixed cut the blocked route
// ("pruned") computes only the pairs inside its blocks, on the exact
// route all pairs are exact, and a blocked sweep at validation scale
// ("crossover") fills one exact block over every record, so all pairs
// are exact there too. The counts must cover n(n-1)/2 with nothing
// dropped or double-counted.
func TestClusterPairAccounting(t *testing.T) {
	fs := parityFS(t, 1, 150)
	n := int64(len(fs.Records))
	allPairs := n * (n - 1) / 2

	t.Run("pruned", func(t *testing.T) {
		reg := telemetry.New()
		opts := ClusterOptions{Blocked: true, FixedCutHeight: 0.3}
		plain := ClusterWPNs(fs, opts)
		opts.Metrics = reg
		counted := ClusterWPNs(fs, opts)
		if !sameLabels(counted.Labels, plain.Labels) {
			t.Error("pair counting changed clustering labels")
		}
		pairs := reg.Snapshot().Families["cluster_pairs"]
		if got := pairs["exact"] + pairs["pruned"]; got != allPairs {
			t.Errorf("exact %d + pruned %d = %d, want all %d pairs", pairs["exact"], pairs["pruned"], got, allPairs)
		}
		if pairs["pruned"] == 0 {
			t.Error("blocking never skipped a pair; accounting test is vacuous")
		}
		t.Logf("n=%d exact=%d pruned=%d (%.1f%% skipped)", n, pairs["exact"], pairs["pruned"],
			100*float64(pairs["pruned"])/float64(allPairs))
	})

	t.Run("exact", func(t *testing.T) {
		reg := telemetry.New()
		ClusterWPNs(fs, ClusterOptions{Metrics: reg})
		pairs := reg.Snapshot().Families["cluster_pairs"]
		if pairs["exact"] != allPairs || pairs["pruned"] != 0 {
			t.Errorf("exact path: exact=%d pruned=%d, want %d/0", pairs["exact"], pairs["pruned"], allPairs)
		}
	})

	// The pipeline's /miningz status must report the same pairs and the
	// clustered record count, not the collected one: crashed records
	// never reach clustering.
	t.Run("crossover", func(t *testing.T) {
		recs := SynthWPNRecords(1, 150)
		for i := 0; i < 20; i++ {
			crashed := *recs[i]
			crashed.Crashed = true
			recs = append(recs, &crashed)
		}
		reg := telemetry.New()
		a, err := RunPipeline(recs, PipelineOptions{
			Features: FeatureOptions{Word2Vec: textmine.Word2VecConfig{Seed: 1}},
			Cluster:  ClusterOptions{Blocked: true},
			Metrics:  reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(a.FS.Records); int64(got) != n {
			t.Fatalf("%d records clustered, want %d", got, n)
		}
		if comps, _ := blockedComponents(a.FS, 0); len(comps) < 2 {
			t.Fatalf("%d block(s): the crossover never swaps blocks; test is vacuous", len(comps))
		}
		pairs := reg.Snapshot().Families["cluster_pairs"]
		if pairs["exact"] != allPairs || pairs["pruned"] != 0 {
			t.Errorf("crossover: exact=%d pruned=%d, want %d/0", pairs["exact"], pairs["pruned"], allPairs)
		}
		ms, _ := telemetry.Status("mining").(*MiningStatus)
		if ms == nil {
			t.Fatal("no mining status published")
		}
		if int64(ms.Records) != n || ms.PairsExact != allPairs || ms.PairsPruned != 0 {
			t.Errorf("/miningz records=%d pairs exact=%d pruned=%d, want %d, %d/0",
				ms.Records, ms.PairsExact, ms.PairsPruned, n, allPairs)
		}
	})
}
