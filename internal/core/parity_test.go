package core

import (
	"math"
	"testing"

	"pushadminer/internal/cluster"
	"pushadminer/internal/crawler"
)

// parityFS extracts features over a synthetic corpus.
func parityFS(t testing.TB, seed int64, n int) *FeatureSet {
	t.Helper()
	return parityFSWith(t, seed, SynthWPNRecords(seed, n), FeatureOptions{})
}

// parityFSWith extracts features over records under the given feature
// options (ablations), with the word2vec seed set to seed.
func parityFSWith(t testing.TB, seed int64, records []*crawler.WPNRecord, opts FeatureOptions) *FeatureSet {
	t.Helper()
	opts.Word2Vec.Seed = seed
	fs, err := ExtractFeatures(records, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func sameLabels(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDistanceMatchesNaiveBitForBit asserts the cached-kernel distance
// over interned path ids reproduces the from-scratch reference exactly,
// entry by entry, under both feature groups and each ablation. In the
// same loop DistanceWithin must answer naiveDistance <= t — at the
// blocking threshold, at the pair's own distance and one ulp below it,
// where a wrong bound would show — and return the reference bit for
// bit whenever it answers true. The corpus gets exact copies of some
// records and copies with a disjoint landing path: pairs whose text
// distance is 0, where the distance equals the path bound.
func TestDistanceMatchesNaiveBitForBit(t *testing.T) {
	records := SynthWPNRecords(1, 120)
	for k := 0; k < 8; k++ {
		same, moved := *records[k], *records[k]
		moved.LandingURL = "https://copy.example/elsewhere/other-page"
		records = append(records, &same, &moved)
	}
	settings := []struct {
		name string
		opts FeatureOptions
	}{
		{"both", FeatureOptions{}},
		{"text-only", FeatureOptions{DisablePath: true}},
		{"path-only", FeatureOptions{DisableText: true}},
	}
	for _, set := range settings {
		fs := parityFSWith(t, 1, records, set.opts)
		n := len(fs.Records)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := naiveDistance(fs, i, j)
				if got := fs.Distance(i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Distance(%d,%d) = %v, naive %v (records %q / %q)",
						set.name, i, j, got, want, fs.Records[i].Body, fs.Records[j].Body)
				}
				for _, th := range []float64{blockDistance, want, math.Nextafter(want, 0)} {
					d, ok := fs.DistanceWithin(i, j, th)
					if ok != (want <= th) {
						t.Fatalf("%s: DistanceWithin(%d,%d,%v) = %v, but naive distance is %v",
							set.name, i, j, th, ok, want)
					}
					if ok && math.Float64bits(d) != math.Float64bits(want) {
						t.Fatalf("%s: DistanceWithin(%d,%d,%v) = %v, naive %v", set.name, i, j, th, d, want)
					}
				}
			}
		}
	}
}

// TestClusterParityNaiveVsCached is the exact route's bit-parity gate:
// its cut step (cached kernel, balanced block scheduling, one block over
// every record, the memoized sweep and its scorer) yields byte-identical
// labels, cut height, and silhouette to the serial reference sweep over
// naiveDistance across seeds and linkages.
func TestClusterParityNaiveVsCached(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, linkage := range []cluster.Linkage{cluster.Average, cluster.Single, cluster.Complete} {
			fs := parityFS(t, seed, 150)
			dm := cluster.Compute(len(fs.Records), func(i, j int) float64 { return naiveDistance(fs, i, j) })
			naive := bestCutConservativeSerial(cluster.AgglomerativeLinkage(dm, linkage), dm, 0.15)
			fast := ClusterWPNs(fs, ClusterOptions{Linkage: linkage})
			if !sameLabels(naive.Labels, fast.Labels) {
				t.Fatalf("seed %d linkage %s: labels differ\nnaive: %v\nfast:  %v",
					seed, linkage, naive.Labels, fast.Labels)
			}
			if naive.Height != fast.CutHeight {
				t.Errorf("seed %d linkage %s: cut height %v != %v", seed, linkage, naive.Height, fast.CutHeight)
			}
			if naive.Silhouette != fast.Silhouette {
				t.Errorf("seed %d linkage %s: silhouette %v != %v", seed, linkage, naive.Silhouette, fast.Silhouette)
			}
		}
	}
}

// TestSynthCorpusDeterministic guards the generator the parity tests and
// benchmarks share.
func TestSynthCorpusDeterministic(t *testing.T) {
	a := SynthWPNRecords(7, 80)
	b := SynthWPNRecords(7, 80)
	if len(a) != 80 || len(b) != 80 {
		t.Fatalf("lengths %d/%d, want 80", len(a), len(b))
	}
	for i := range a {
		if a[i].Body != b[i].Body || a[i].LandingURL != b[i].LandingURL || a[i].SourceDomain != b[i].SourceDomain {
			t.Fatalf("record %d differs between identical seeds", i)
		}
		if !a[i].ValidLanding() {
			t.Fatalf("record %d has no valid landing", i)
		}
	}
	c := SynthWPNRecords(8, 80)
	same := 0
	for i := range a {
		if a[i].Body == c[i].Body {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical corpora")
	}
}

// TestSynthCorpusClusters sanity-checks that the pipeline finds ad
// campaigns in the synthetic corpus (multi-source clusters exist).
func TestSynthCorpusClusters(t *testing.T) {
	fs := parityFS(t, 5, 160)
	res := ClusterWPNs(fs, ClusterOptions{})
	if len(res.Clusters) < 5 {
		t.Fatalf("only %d clusters", len(res.Clusters))
	}
	if len(res.AdCampaigns()) == 0 {
		t.Fatal("no ad campaigns recovered from campaign-heavy corpus")
	}
}
