package cluster

import (
	"sync"
	"testing"
)

func TestUnindexRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 100, 733} {
		m := NewDistMatrix(n)
		for idx := 0; idx < len(m.data); idx++ {
			i, j := unindex(n, idx)
			if i < 0 || j <= i || j >= n {
				t.Fatalf("n=%d: unindex(%d) = (%d,%d) out of range", n, idx, i, j)
			}
			if got := m.index(i, j); got != idx {
				t.Fatalf("n=%d: index(unindex(%d)) = %d", n, idx, got)
			}
		}
	}
}

func TestComputeBalancedMatchesSerial(t *testing.T) {
	f := func(i, j int) float64 { return float64(i*1000+j) / 7 }
	for _, n := range []int{0, 1, 2, 3, 31, 200} {
		m := Compute(n, f)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got, want := m.At(i, j), float64(float32(f(i, j))); got != want {
					t.Fatalf("n=%d At(%d,%d) = %v, want %v", n, i, j, got, want)
				}
			}
		}
	}
}

// TestComputeMaskedKeepSeesEveryPairOnce guards Compute's scheduling:
// the balanced block claims cover every pair exactly once, so f is
// never skipped or re-invoked (it may be stateful or expensive).
func TestComputeMaskedKeepSeesEveryPairOnce(t *testing.T) {
	n := 40
	var mu sync.Mutex
	seen := make(map[[2]int]int)
	Compute(n, func(i, j int) float64 {
		mu.Lock()
		seen[[2]int{i, j}]++
		mu.Unlock()
		return 0
	})
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("f saw %d pairs, want %d", len(seen), n*(n-1)/2)
	}
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("pair %v evaluated %d times", p, c)
		}
	}
}

func TestSampleHeights(t *testing.T) {
	cands := make([]float64, 100)
	for i := range cands {
		cands[i] = float64(i)
	}
	got := sampleHeights(cands, 8)
	if len(got) != 8 {
		t.Fatalf("sampled %d, want 8", len(got))
	}
	if got[0] != cands[0] {
		t.Errorf("first height dropped: %v", got)
	}
	if got[7] != cands[99] || got[6] != cands[98] {
		t.Errorf("final heights dropped: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("samples not strictly increasing: %v", got)
		}
	}
	// Pass-through below the bound; single-sample edge.
	if s := sampleHeights(cands[:5], 8); len(s) != 5 {
		t.Errorf("short input resampled: %v", s)
	}
	if s := sampleHeights(cands, 1); len(s) != 1 || s[0] != cands[99] {
		t.Errorf("max=1 should keep only the final height: %v", s)
	}
	if s := sampleHeights(cands, 2); len(s) != 2 || s[0] != cands[0] || s[1] != cands[99] {
		t.Errorf("max=2 should keep first and final: %v", s)
	}
}

// TestTieHeavyDendrogram exercises sortMerges renumbering and
// CutByHeight label ordering when many merges share a height.
func TestTieHeavyDendrogram(t *testing.T) {
	// Three groups of three: every intra distance exactly 0.2, every
	// inter distance exactly 0.8 — six tied merges then two tied merges.
	n := 9
	group := func(i int) int { return i / 3 }
	m := Compute(n, func(i, j int) float64 {
		if group(i) == group(j) {
			return 0.2
		}
		return 0.8
	})
	d := Agglomerative(m)
	merges := d.Merges()
	if len(merges) != n-1 {
		t.Fatalf("merges = %d, want %d", len(merges), n-1)
	}
	used := make(map[int]bool)
	for k, mg := range merges {
		if mg.Distance < merges[0].Distance {
			t.Fatalf("merges out of order at %d", k)
		}
		if mg.A >= mg.B {
			t.Fatalf("merge %d: A >= B (%d >= %d)", k, mg.A, mg.B)
		}
		if mg.B >= n+k {
			t.Fatalf("merge %d references future cluster %d (tie renumbering broken)", k, mg.B)
		}
		if used[mg.A] || used[mg.B] {
			t.Fatalf("merge %d reuses a consumed cluster", k)
		}
		used[mg.A], used[mg.B] = true, true
	}
	// Cutting at the (float32-rounded) tie height applies every tied
	// merge at that height.
	tie := merges[0].Distance
	labels := d.CutByHeight(tie)
	if k := NumClusters(labels); k != 3 {
		t.Fatalf("cut at tie height: %d clusters, want 3 (labels %v)", k, labels)
	}
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("tie-cut labels = %v, want %v (leaf-order labeling)", labels, want)
		}
	}
	if k := NumClusters(d.CutByHeight(tie - 1e-6)); k != n {
		t.Errorf("below tie height: %d clusters, want %d", k, n)
	}
	if k := NumClusters(d.CutByHeight(merges[len(merges)-1].Distance)); k != 1 {
		t.Errorf("at top tie height: %d clusters, want 1", k)
	}
}
