package core

import (
	"math"
	"math/rand"
	"testing"

	"pushadminer/internal/cluster"
	"pushadminer/internal/crawler"
)

// oneBlock wraps a distance matrix as the single block holding every
// item, the shape the exact route hands the cut step.
func oneBlock(m *cluster.DistMatrix, linkage cluster.Linkage) *blockDendrogram {
	bd := &blockDendrogram{members: make([]int, m.Len()), dm: m, dend: cluster.AgglomerativeLinkage(m, linkage)}
	for i := range bd.members {
		bd.members[i] = i
	}
	return bd
}

// oneBlockCut runs the cut step over one block of a synthetic matrix.
// The records and features are blank: the step needs only their count.
func oneBlockCut(m *cluster.DistMatrix, opts ClusterOptions) *ClusterResult {
	fs := &FeatureSet{Records: make([]*crawler.WPNRecord, m.Len()), Features: make([]Features, m.Len())}
	for i := range fs.Records {
		fs.Records[i] = &crawler.WPNRecord{}
	}
	res, _ := cutStep(fs, []*blockDendrogram{oneBlock(m, opts.Linkage)}, m.Len(), opts)
	return res
}

// oneBlockSilhouette is the mean silhouette of labels (dense from 0,
// as every cut produces) under the cut step's scorer.
func oneBlockSilhouette(m *cluster.DistMatrix, labels []int, sc *silScratch) float64 {
	bd := &blockDendrogram{dm: m}
	return blockSilhouetteSum(bd, labels, 1, false, sc) / float64(m.Len())
}

// twoBlobs returns a distance matrix with two tight groups of the given
// sizes: intra-group distance 0.1, inter-group 0.9.
func twoBlobs(a, b int) *cluster.DistMatrix {
	return cluster.Compute(a+b, func(i, j int) float64 {
		if (i < a) == (j < a) {
			return 0.1
		}
		return 0.9
	})
}

// randomMatrix fills an n-item matrix with rng draws, drawn up front
// because Compute calls its distance function from parallel workers.
func randomMatrix(n int, rng *rand.Rand) *cluster.DistMatrix {
	d := make([]float64, n*n)
	for i := range d {
		d[i] = rng.Float64()
	}
	return cluster.Compute(n, func(i, j int) float64 { return d[i*n+j] })
}

// denseLabels renumbers labels by first occurrence, so they run
// contiguously from 0 like a dendrogram cut's.
func denseLabels(labels []int) []int {
	remap := map[int]int{}
	out := make([]int, len(labels))
	for i, l := range labels {
		if _, ok := remap[l]; !ok {
			remap[l] = len(remap)
		}
		out[i] = remap[l]
	}
	return out
}

// assertMatchesSerial checks a one-block cut against the serial
// reference bit for bit: the conservative sweep's oracle, or under a
// fixed height the dendrogram cut scored by silhouetteSerial.
func assertMatchesSerial(t *testing.T, m *cluster.DistMatrix, opts ClusterOptions, res *ClusterResult) {
	t.Helper()
	want := cutResult{Height: opts.FixedCutHeight}
	if opts.FixedCutHeight > 0 {
		want.Labels = cluster.AgglomerativeLinkage(m, opts.Linkage).CutByHeight(opts.FixedCutHeight)
		want.Silhouette = silhouetteSerial(m, want.Labels)
	} else {
		want = bestCutConservativeSerial(cluster.AgglomerativeLinkage(m, opts.Linkage), m, opts.conservativeTol())
	}
	if !sameLabels(res.Labels, want.Labels) || res.CutHeight != want.Height || res.Silhouette != want.Silhouette {
		t.Errorf("cut step %v at %v (silhouette %v), serial %v at %v (silhouette %v)",
			res.Labels, res.CutHeight, res.Silhouette, want.Labels, want.Height, want.Silhouette)
	}
}

// TestCutStepOneBlock drives the cut step over one block of small
// synthetic matrices, both the sweep and fixed cuts, and checks each
// outcome against the serial reference bit for bit and against what the
// matrix's shape dictates: blobs are recovered, degenerate labelings
// score 0, inputs with no valid cut fall back to leaves, and the
// sampled sweep still reaches the coarsest cut.
func TestCutStepOneBlock(t *testing.T) {
	best := ClusterOptions{ConservativeTol: -1} // highest silhouette wins
	sizes := []int{5, 4, 6}
	group := func(i int) int {
		switch {
		case i < sizes[0]:
			return 0
		case i < sizes[0]+sizes[1]:
			return 1
		default:
			return 2
		}
	}
	rng := rand.New(rand.NewSource(11))
	noise := make([]float64, 15*15)
	for i := range noise {
		noise[i] = rng.Float64()
	}
	threeBlobs := cluster.Compute(15, func(i, j int) float64 {
		if group(i) == group(j) {
			return 0.05 + 0.05*noise[i*15+j]
		}
		return 0.8 + 0.1*noise[i*15+j]
	})
	// Two tight blobs with all-distinct intra distances, far apart: more
	// distinct merge heights than maxCutCandidates, and the winning
	// 2-cluster cut sits at the highest intra height, so the sweep only
	// finds it if sampling reaches the tail.
	const half = 50
	coarsest := cluster.Compute(2*half, func(i, j int) float64 {
		if (i < half) == (j < half) {
			return 0.05 + 0.003*float64(i*2*half+j%97)/float64(2*half)
		}
		return 0.95
	})
	// Three groups of three: intra distances all 0.2, inter all 0.8.
	tieHeavy := cluster.Compute(9, func(i, j int) float64 {
		if i/3 == j/3 {
			return 0.2
		}
		return 0.8
	})
	pair := cluster.NewDistMatrix(2)
	pair.Set(0, 1, 0.4)

	for _, c := range []struct {
		name  string
		m     *cluster.DistMatrix
		opts  ClusterOptions
		k     int
		check func(t *testing.T, res *ClusterResult)
	}{
		{name: "perfect-split", m: twoBlobs(5, 5), opts: ClusterOptions{FixedCutHeight: 0.5}, k: 2,
			check: func(t *testing.T, res *ClusterResult) {
				// a = 0.1, b = 0.9 → s = (0.9-0.1)/0.9 = 8/9.
				if math.Abs(res.Silhouette-8.0/9.0) > 1e-6 {
					t.Errorf("silhouette = %v, want %v", res.Silhouette, 8.0/9.0)
				}
				var sc silScratch
				bad := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
				if s := oneBlockSilhouette(twoBlobs(5, 5), bad, &sc); s >= res.Silhouette {
					t.Errorf("interleaved labeling scores %v >= blob split %v", s, res.Silhouette)
				}
			}},
		{name: "degenerate-one-cluster", m: twoBlobs(3, 3), opts: ClusterOptions{FixedCutHeight: 2}, k: 1},
		{name: "degenerate-all-singletons", m: twoBlobs(3, 3), opts: ClusterOptions{FixedCutHeight: 0.01}, k: 6},
		{name: "degenerate-empty", m: cluster.NewDistMatrix(0), opts: best, k: 0},
		{name: "two-blobs", m: twoBlobs(6, 4), opts: best, k: 2,
			check: func(t *testing.T, res *ClusterResult) {
				if res.Silhouette <= 0.5 {
					t.Errorf("silhouette = %v, want > 0.5", res.Silhouette)
				}
			}},
		{name: "three-blobs", m: threeBlobs, opts: best, k: 3,
			check: func(t *testing.T, res *ClusterResult) {
				for i := range res.Labels {
					for j := i + 1; j < len(res.Labels); j++ {
						if (res.Labels[i] == res.Labels[j]) != (group(i) == group(j)) {
							t.Fatalf("items %d,%d labeling mismatch: %v", i, j, res.Labels)
						}
					}
				}
			}},
		{name: "tiny-n1", m: cluster.NewDistMatrix(1), opts: best, k: 1},
		{name: "tiny-n2", m: pair, opts: best, k: 2}, // no valid 2 <= k < n cut
		{name: "coarsest-cut", m: coarsest, opts: best, k: 2,
			check: func(t *testing.T, res *ClusterResult) {
				if n := len(pooledCutCandidates([]*blockDendrogram{oneBlock(coarsest, cluster.Average)})); n != maxCutCandidates {
					t.Errorf("%d candidates, want the sweep sampled down to %d", n, maxCutCandidates)
				}
			}},
		{name: "tie-heavy", m: tieHeavy, opts: best, k: 3,
			check: func(t *testing.T, res *ClusterResult) {
				if want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}; !sameLabels(res.Labels, want) {
					t.Errorf("tie-cut labels = %v, want %v", res.Labels, want)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := oneBlockCut(c.m, c.opts)
			if k := numClusters(res.Labels); k != c.k {
				t.Fatalf("%d clusters, want %d (labels %v)", k, c.k, res.Labels)
			}
			if (c.k < 2 || c.k == c.m.Len()) && res.Silhouette != 0 {
				t.Errorf("degenerate cut scores %v, want 0", res.Silhouette)
			}
			assertMatchesSerial(t, c.m, c.opts, res)
			if c.check != nil {
				c.check(t, res)
			}
		})
	}
}

// tieMatrix fills an n-item matrix with draws from four values, zero
// among them, so equal distances, equal means and exact zeros abound.
func tieMatrix(n int, rng *rand.Rand) *cluster.DistMatrix {
	d := make([]float64, n*n)
	for i := range d {
		d[i] = float64(rng.Intn(4)) / 4
	}
	return cluster.Compute(n, func(i, j int) float64 { return d[i*n+j] })
}

// oneBigCluster labels a random subset of size members as one cluster
// and every other item as its own singleton, densely from 0. Below
// three quarters of the items, this cut shape sends the scorer down
// its per-member fallback.
func oneBigCluster(n, size int, rng *rand.Rand) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i + 1
	}
	for _, i := range rng.Perm(n)[:size] {
		labels[i] = 0
	}
	return denseLabels(labels)
}

// streams reports whether the scorer takes its streaming kernel on
// labels (dense from 0) rather than the per-member fallback.
func streams(labels []int) bool {
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	nact := 0
	for _, l := range labels {
		if counts[l] > 1 {
			nact++
		}
	}
	return nact > 0 && 4*nact >= 3*len(labels)
}

// TestSilhouetteMatchesSerialBitForBit pins the cut step's scorer and
// sweep to the serial references, bit for bit, on random and tie-heavy
// matrices (four distinct distances, exact zeros among them) under
// random labelings, dendrogram cuts, and cuts that leave every cluster
// but one a singleton. Random labelings exercise the streaming kernel,
// the one-cluster cuts and sparse low cuts the per-member fallback; the
// test fails if either path never runs. One scratch serves every call.
func TestSilhouetteMatchesSerialBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var sc silScratch
	var streamed, fellBack int
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(120)
		m := randomMatrix(n, rng)
		if trial%2 == 1 {
			m = tieMatrix(n, rng)
		}
		k := 1 + rng.Intn(6)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(k)
		}
		labels = denseLabels(labels)
		linkage := cluster.Linkage(trial % 3)
		cut := cluster.AgglomerativeLinkage(m, linkage).CutByHeight(0.2)
		oneBig := oneBigCluster(n, 2+rng.Intn(n-1), rng)
		for _, lab := range [][]int{labels, cut, oneBig} {
			if streams(lab) {
				streamed++
			} else {
				fellBack++
			}
			if got, want := oneBlockSilhouette(m, lab, &sc), silhouetteSerial(m, lab); got != want {
				t.Fatalf("trial %d (n=%d): silhouette %v != serial %v for labels %v", trial, n, got, want, lab)
			}
		}
		assertMatchesSerial(t, m, ClusterOptions{Linkage: linkage}, oneBlockCut(m, ClusterOptions{Linkage: linkage}))
	}
	if streamed == 0 || fellBack == 0 {
		t.Fatalf("%d labelings streamed, %d fell back; both scorer paths must run", streamed, fellBack)
	}
}

// TestOneBlockSweepKeepsNearTieHeights sweeps one block whose
// dendrogram has more than maxCutCandidates distinct heights, forty of
// them within 1e-9 of their neighbours (tight pairs whose distances are
// consecutive float32 values), and asserts the cut step matches the
// serial reference sweep bit for bit. Collapsing candidate heights under
// a tolerance would drop the top of that run — the cut where every pair
// has merged — and change the chosen cut, as would any other change to
// the candidate set.
func TestOneBlockSweepKeepsNearTieHeights(t *testing.T) {
	const pairs = 40
	n := 2 * pairs
	base := float64(float32(0.001))
	ulp := math.Nextafter32(float32(base), 1) - float32(base)
	rng := rand.New(rand.NewSource(5))
	far := make([]float64, n*n)
	for i := range far {
		far[i] = 0.3 + 0.6*rng.Float64()
	}
	m := cluster.Compute(n, func(i, j int) float64 {
		if i/2 == j/2 {
			return base + float64(i/2)*float64(ulp)
		}
		return far[i*n+j]
	})
	for _, linkage := range []cluster.Linkage{cluster.Average, cluster.Single, cluster.Complete} {
		merges := cluster.AgglomerativeLinkage(m, linkage).Merges()
		distinct, near := 1, 0
		for i := 1; i < len(merges); i++ {
			if d := merges[i].Distance - merges[i-1].Distance; d > 0 {
				distinct++
				if d < 1e-9 {
					near++
				}
			}
		}
		if distinct <= maxCutCandidates || near < pairs-1 {
			t.Fatalf("%s: %d distinct heights, %d within 1e-9 of the previous; the sweep would not be sampled or no heights are near-tied", linkage, distinct, near)
		}
		for _, tol := range []float64{0.15, -1} {
			opts := ClusterOptions{Linkage: linkage, ConservativeTol: tol}
			assertMatchesSerial(t, m, opts, oneBlockCut(m, opts))
		}
	}
}

// TestExactFixedCutSilhouetteMatchesSerial asserts the exact route's
// fixed-cut silhouette equals silhouetteSerial bit for bit, at heights
// from sparse (many singletons, the row-walk scorer) to coarse (the
// streaming kernel).
func TestExactFixedCutSilhouetteMatchesSerial(t *testing.T) {
	fs := parityFS(t, 2, 150)
	dm := cluster.Compute(len(fs.Records), fs.Distance)
	dend := cluster.Agglomerative(dm)
	for _, h := range []float64{0.05, 0.15, 0.3, 0.6} {
		res := ClusterWPNs(fs, ClusterOptions{FixedCutHeight: h})
		labels := dend.CutByHeight(h)
		if !sameLabels(res.Labels, labels) {
			t.Fatalf("h=%v: labels differ from the dendrogram cut", h)
		}
		if want := silhouetteSerial(dm, labels); res.Silhouette != want {
			t.Errorf("h=%v: silhouette %v, serial %v", h, res.Silhouette, want)
		}
	}
}

// scratchCaps lists the capacity of every slice in a scorer scratch.
func scratchCaps(sc *silScratch) [7]int {
	return [7]int{cap(sc.counts), cap(sc.rank), cap(sc.mcount), cap(sc.dlab), cap(sc.sums), cap(sc.minS), cap(sc.acc)}
}

// TestSilhouetteAccumulatorReuse asserts a reused scorer scratch left
// dirty by larger cells scores every later cell exactly as a fresh one
// does, on both scorer paths, and regrows none of its slices. The first
// two cells are the largest streaming and fallback cells; every later
// cell, smaller and of either shape, must fit the scratch they grew.
func TestSilhouetteAccumulatorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randomLabels := func(n int) []int {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(1 + n/10)
		}
		return denseLabels(labels)
	}
	type cell struct {
		m      *cluster.DistMatrix
		labels []int
	}
	// The warm cells: 16 clusters of 9 or 10 over 150 items (the widest
	// accumulator any later cell needs), then one pair and 148
	// singletons (the most clusters any later cell has).
	warmStream := make([]int, 150)
	for i := range warmStream {
		warmStream[i] = i % 16
	}
	cells := []cell{
		{randomMatrix(150, rng), warmStream},
		{randomMatrix(150, rng), oneBigCluster(150, 2, rng)},
	}
	for i, n := range []int{40, 90, 7, 120, 60, 150, 33} {
		m := randomMatrix(n, rng)
		if i%3 == 2 {
			m = tieMatrix(n, rng)
		}
		labels := randomLabels(n)
		if i%2 == 1 {
			labels = oneBigCluster(n, 2+rng.Intn(n/4), rng)
		}
		cells = append(cells, cell{m, labels})
	}
	var dirty silScratch
	var warm [7]int
	for trial, c := range cells {
		var fresh silScratch
		want := oneBlockSilhouette(c.m, c.labels, &fresh)
		if got := oneBlockSilhouette(c.m, c.labels, &dirty); got != want {
			t.Fatalf("trial %d (n=%d): reused scratch scores %v, fresh %v", trial, c.m.Len(), got, want)
		}
		switch trial {
		case 0:
			if cap(dirty.acc) == 0 {
				t.Fatal("the streaming kernel never ran; the test is vacuous")
			}
		case 1:
			if cap(dirty.sums) == 0 {
				t.Fatal("the per-member fallback never ran; the test is vacuous")
			}
			warm = scratchCaps(&dirty)
		default:
			if caps := scratchCaps(&dirty); caps != warm {
				t.Errorf("trial %d (n=%d): scratch capacities %v regrown from %v though larger cells filled them", trial, c.m.Len(), caps, warm)
			}
		}
	}
}
