package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistMatrixBasics(t *testing.T) {
	m := NewDistMatrix(4)
	m.Set(0, 1, 0.5)
	m.Set(2, 1, 0.25)
	if got := m.At(1, 0); got != 0.5 {
		t.Errorf("At(1,0) = %v, want 0.5 (symmetry)", got)
	}
	if got := m.At(1, 2); got != 0.25 {
		t.Errorf("At(1,2) = %v, want 0.25", got)
	}
	if got := m.At(3, 3); got != 0 {
		t.Errorf("diagonal = %v, want 0", got)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	m.Set(0, 3, float64(math.NaN()))
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted NaN")
	}
}

func TestDistMatrixIndexCoversAllPairs(t *testing.T) {
	const n = 17
	m := NewDistMatrix(n)
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			idx := m.index(i, j)
			if seen[idx] {
				t.Fatalf("index collision at (%d,%d)", i, j)
			}
			seen[idx] = true
			if idx < 0 || idx >= len(m.data) {
				t.Fatalf("index out of range at (%d,%d): %d", i, j, idx)
			}
		}
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("covered %d indices, want %d", len(seen), n*(n-1)/2)
	}
}

// TestCopyPairs checks that CopyPairs lands every source pair at its
// mapped position with the same float32 bits and leaves every other
// pair alone.
func TestCopyPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	src := randomMatrix(9, rng)
	pos := []int{0, 2, 3, 7, 8, 11, 15, 16, 19}
	m := NewDistMatrix(20)
	const untouched = 2.5
	for i := 0; i < m.Len(); i++ {
		for j := i + 1; j < m.Len(); j++ {
			m.Set(i, j, untouched)
		}
	}
	m.CopyPairs(src, pos)
	at := make(map[[2]int][2]int)
	for a := range pos {
		for b := a + 1; b < len(pos); b++ {
			at[[2]int{pos[a], pos[b]}] = [2]int{a, b}
		}
	}
	for i := 0; i < m.Len(); i++ {
		for j := i + 1; j < m.Len(); j++ {
			got := m.At(i, j)
			if ab, ok := at[[2]int{i, j}]; ok {
				if want := src.At(ab[0], ab[1]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("(%d,%d) = %v, want source (%d,%d) = %v", i, j, got, ab[0], ab[1], want)
				}
			} else if got != untouched {
				t.Fatalf("(%d,%d) = %v, outside the copy, want it untouched", i, j, got)
			}
		}
	}
}

func TestCompute(t *testing.T) {
	m := Compute(5, func(i, j int) float64 { return float64(i + j) })
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if got := m.At(i, j); got != float64(i+j) {
				t.Errorf("At(%d,%d) = %v, want %d", i, j, got, i+j)
			}
		}
	}
}

// twoBlobs returns a distance matrix with two tight groups of the given
// sizes: intra-group distance 0.1, inter-group 0.9.
func twoBlobs(a, b int) *DistMatrix {
	n := a + b
	return Compute(n, func(i, j int) float64 {
		gi, gj := i < a, j < a
		if gi == gj {
			return 0.1
		}
		return 0.9
	})
}

func TestAgglomerativeTwoBlobs(t *testing.T) {
	m := twoBlobs(4, 3)
	d := Agglomerative(m)
	if got := len(d.Merges()); got != 6 {
		t.Fatalf("merges = %d, want n-1 = 6", got)
	}
	labels := d.CutByHeight(0.5)
	if k := NumClusters(labels); k != 2 {
		t.Fatalf("clusters at h=0.5: %d, want 2", k)
	}
	// All of group A share a label, all of group B share the other.
	for i := 1; i < 4; i++ {
		if labels[i] != labels[0] {
			t.Errorf("item %d not with group A: %v", i, labels)
		}
	}
	for i := 5; i < 7; i++ {
		if labels[i] != labels[4] {
			t.Errorf("item %d not with group B: %v", i, labels)
		}
	}
	if labels[0] == labels[4] {
		t.Error("groups A and B merged at h=0.5")
	}
}

// randomMatrix fills an n-item matrix with rng draws, one per pair in
// row-major order. The draws happen up front because Compute calls its
// distance function from parallel workers, which must not share rng.
func randomMatrix(n int, rng *rand.Rand) *DistMatrix {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := i + 1; j < n; j++ {
			d[i][j] = rng.Float64()
		}
	}
	return Compute(n, func(i, j int) float64 { return d[i][j] })
}

func TestMergesSortedByDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(20, rng)
	d := Agglomerative(m)
	merges := d.Merges()
	for i := 1; i < len(merges); i++ {
		if merges[i].Distance < merges[i-1].Distance {
			t.Fatalf("merges out of order at %d: %v < %v", i, merges[i].Distance, merges[i-1].Distance)
		}
	}
	// Final merge has all leaves.
	if merges[len(merges)-1].Size != 20 {
		t.Fatalf("final merge size = %d, want 20", merges[len(merges)-1].Size)
	}
}

func TestMergeIDsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 15
	m := randomMatrix(n, rng)
	d := Agglomerative(m)
	used := make(map[int]bool)
	for k, mg := range d.Merges() {
		if mg.A >= mg.B {
			t.Fatalf("merge %d: A >= B (%d >= %d)", k, mg.A, mg.B)
		}
		if mg.B >= n+k {
			t.Fatalf("merge %d references future cluster %d", k, mg.B)
		}
		if used[mg.A] || used[mg.B] {
			t.Fatalf("merge %d reuses a consumed cluster", k)
		}
		used[mg.A], used[mg.B] = true, true
	}
}

func TestCutByHeightExtremes(t *testing.T) {
	m := twoBlobs(3, 3)
	d := Agglomerative(m)
	all := d.CutByHeight(math.Inf(1))
	if k := NumClusters(all); k != 1 {
		t.Errorf("cut at +inf: %d clusters, want 1", k)
	}
	none := d.CutByHeight(-1)
	if k := NumClusters(none); k != 6 {
		t.Errorf("cut at -1: %d clusters, want 6", k)
	}
}

func TestAgglomerativeTinyInputs(t *testing.T) {
	d0 := Agglomerative(NewDistMatrix(0))
	if d0.Len() != 0 || len(d0.Merges()) != 0 {
		t.Error("n=0 dendrogram not empty")
	}
	d1 := Agglomerative(NewDistMatrix(1))
	if len(d1.Merges()) != 0 {
		t.Error("n=1 dendrogram has merges")
	}
	if labels := d1.CutByHeight(1); !reflect.DeepEqual(labels, []int{0}) {
		t.Errorf("n=1 labels = %v", labels)
	}
	m2 := NewDistMatrix(2)
	m2.Set(0, 1, 0.7)
	d2 := Agglomerative(m2)
	if len(d2.Merges()) != 1 || math.Abs(d2.Merges()[0].Distance-0.7) > 1e-6 {
		t.Errorf("n=2 merges = %+v", d2.Merges())
	}
}

func TestAverageLinkageValue(t *testing.T) {
	// Three points: 0 and 1 at distance 0.2; both far from 2 at known
	// distances 0.8 and 1.0 → average linkage merges {0,1} with 2 at 0.9.
	m := NewDistMatrix(3)
	m.Set(0, 1, 0.2)
	m.Set(0, 2, 0.8)
	m.Set(1, 2, 1.0)
	d := Agglomerative(m)
	merges := d.Merges()
	if len(merges) != 2 {
		t.Fatalf("merges = %d, want 2", len(merges))
	}
	if math.Abs(merges[0].Distance-0.2) > 1e-6 {
		t.Errorf("first merge at %v, want 0.2", merges[0].Distance)
	}
	if math.Abs(merges[1].Distance-0.9) > 1e-6 {
		t.Errorf("second merge at %v, want 0.9 (UPGMA)", merges[1].Distance)
	}
}

func TestAgglomerativeQuickInvariants(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%30) + 2
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(n, rng)
		d := Agglomerative(m)
		if len(d.Merges()) != n-1 {
			return false
		}
		// Every cut yields contiguous labels covering all items.
		labels := d.CutByHeight(0.5)
		k := NumClusters(labels)
		maxLabel := 0
		for _, l := range labels {
			if l < 0 {
				return false
			}
			if l > maxLabel {
				maxLabel = l
			}
		}
		if maxLabel != k-1 {
			return false
		}
		// Monotone: cutting higher yields no more clusters.
		if NumClusters(d.CutByHeight(0.9)) > k {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLinkageDendrogramProperties checks every linkage's dendrogram
// over random and tie-heavy matrices, the all-equal one included: each
// operand is a leaf or an earlier merge, consumed once; heights never
// decrease; no merge joins a component to itself; and a cut above the
// top merge leaves one cluster. Tie-heavy matrices draw from a few
// values, so average linkage's float32 updates produce near-ties.
func TestLinkageDendrogramProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	matrices := []*DistMatrix{Compute(10, func(i, j int) float64 { return 0.3358427846251048 })}
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(30)
		if trial%2 == 0 {
			matrices = append(matrices, randomMatrix(n, rng))
			continue
		}
		vals := make([]float64, 1+rng.Intn(3))
		for i := range vals {
			vals[i] = rng.Float64()
		}
		d := make([]float64, n*n)
		for i := range d {
			d[i] = vals[rng.Intn(len(vals))]
		}
		matrices = append(matrices, Compute(n, func(i, j int) float64 { return d[i*n+j] }))
	}
	for mi, m := range matrices {
		for _, linkage := range []Linkage{Average, Single, Complete} {
			if err := checkDendrogram(AgglomerativeLinkage(m, linkage)); err != nil {
				t.Fatalf("matrix %d (n=%d) %s linkage: %v", mi, m.Len(), linkage, err)
			}
		}
	}
}

// checkDendrogram reports the first violated dendrogram property.
func checkDendrogram(d *Dendrogram) error {
	n, merges := d.Len(), d.Merges()
	if len(merges) != n-1 {
		return fmt.Errorf("%d merges over %d leaves", len(merges), n)
	}
	uf := NewUnionFind(n)
	leaf := make([]int, n+len(merges)) // cluster id -> one of its leaves
	used := make([]bool, n+len(merges))
	for i := 0; i < n; i++ {
		leaf[i] = i
	}
	for k, mg := range merges {
		if k > 0 && mg.Distance < merges[k-1].Distance {
			return fmt.Errorf("merge %d at %v below merge %d at %v", k, mg.Distance, k-1, merges[k-1].Distance)
		}
		for _, op := range []int{mg.A, mg.B} {
			if op < 0 || op >= n+k || used[op] {
				return fmt.Errorf("merge %d operand %d is not a leaf or an earlier unconsumed merge", k, op)
			}
			used[op] = true
		}
		if uf.Same(leaf[mg.A], leaf[mg.B]) {
			return fmt.Errorf("merge %d joins a component to itself", k)
		}
		uf.Union(leaf[mg.A], leaf[mg.B])
		leaf[n+k] = leaf[mg.A]
	}
	if k := NumClusters(d.CutByHeight(merges[len(merges)-1].Distance + 1)); k != 1 {
		return fmt.Errorf("cut above the top merge gives %d clusters, want 1", k)
	}
	return nil
}

func TestCutLabelsDeterministicOrder(t *testing.T) {
	m := twoBlobs(3, 3)
	d := Agglomerative(m)
	labels := d.CutByHeight(0.5)
	// Labels should be assigned in leaf order: item 0 gets label 0.
	if labels[0] != 0 {
		t.Errorf("labels[0] = %d, want 0", labels[0])
	}
	sorted := append([]int(nil), labels...)
	sort.Ints(sorted)
	if sorted[0] != 0 {
		t.Errorf("labels not 0-based: %v", labels)
	}
}

func TestLinkageString(t *testing.T) {
	if Average.String() != "average" || Single.String() != "single" || Complete.String() != "complete" {
		t.Error("linkage names wrong")
	}
}

func TestLinkageVariantsKnownValues(t *testing.T) {
	// Points 0,1 close (0.2); distances to 2: 0.8 and 1.0.
	m := NewDistMatrix(3)
	m.Set(0, 1, 0.2)
	m.Set(0, 2, 0.8)
	m.Set(1, 2, 1.0)
	cases := []struct {
		linkage Linkage
		want    float64
	}{
		{Average, 0.9}, {Single, 0.8}, {Complete, 1.0},
	}
	for _, c := range cases {
		d := AgglomerativeLinkage(m, c.linkage)
		got := d.Merges()[1].Distance
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("%s linkage second merge = %v, want %v", c.linkage, got, c.want)
		}
	}
}

func TestLinkageOrdering(t *testing.T) {
	// For any matrix, single-linkage merge heights <= average <= complete
	// at each merge step (a standard property).
	rng := rand.New(rand.NewSource(17))
	m := randomMatrix(12, rng)
	single := AgglomerativeLinkage(m, Single).Merges()
	complete := AgglomerativeLinkage(m, Complete).Merges()
	// Compare total merge heights (per-step ids can differ).
	var sSum, cSum float64
	for i := range single {
		sSum += single[i].Distance
		cSum += complete[i].Distance
	}
	if sSum > cSum {
		t.Errorf("single linkage total height %v > complete %v", sSum, cSum)
	}
}

func TestAccumRowByLabelMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 37
	m := randomMatrix(n, rng)
	lab := make([]int, n)
	for i := range lab {
		lab[i] = rng.Intn(5)
	}
	for i := 0; i < n; i++ {
		want := make([]float64, 5)
		for j := 0; j < n; j++ {
			if j != i {
				want[lab[j]] += m.At(i, j)
			}
		}
		got := make([]float64, 5)
		m.AccumRowByLabel(i, lab, got)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("row %d label %d: AccumRowByLabel %v, naive %v (must be bit-identical)", i, c, got[c], want[c])
			}
		}
	}
}

func TestAccumMultiByLabelMatchesRowWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 41
	m := randomMatrix(n, rng)
	// Labels 0..2 are multi-member clusters; 3..kb-1 are singletons.
	kb := 9
	lab := make([]int, n)
	for i := range lab {
		lab[i] = rng.Intn(3)
	}
	for c := 3; c < kb; c++ {
		lab[c] = c // one member each
	}
	counts := make([]int, kb)
	for _, l := range lab {
		counts[l]++
	}
	km := 0
	dense := make([]int, kb)
	for c := range counts {
		if counts[c] > 1 {
			dense[c] = km
			km++
		} else {
			dense[c] = -1
		}
	}
	dlab := make([]int, n)
	for i, l := range lab {
		dlab[i] = dense[l]
	}
	acc := make([]float64, n*km)
	minS := make([]float64, n)
	for i := range minS {
		minS[i] = math.Inf(1)
	}
	m.AccumMultiByLabel(dlab, km, acc, minS)
	for i := 0; i < n; i++ {
		want := make([]float64, kb)
		m.AccumRowByLabel(i, lab, want)
		wantMin := math.Inf(1)
		for c := 0; c < kb; c++ {
			if d := dense[c]; d >= 0 {
				if acc[d*n+i] != want[c] {
					t.Fatalf("item %d multi label %d: AccumMultiByLabel %v, AccumRowByLabel %v (must be bit-identical)",
						i, c, acc[d*n+i], want[c])
				}
			} else if c != lab[i] && want[c] < wantMin {
				wantMin = want[c]
			}
		}
		if minS[i] != wantMin {
			t.Fatalf("item %d: min singleton distance %v, want %v", i, minS[i], wantMin)
		}
	}
}
