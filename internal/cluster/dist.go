// Package cluster implements the unsupervised-learning substrate of the
// mining pipeline (§5.1.1): a condensed pairwise distance matrix,
// agglomerative hierarchical clustering with average linkage (via the
// nearest-neighbor-chain algorithm), dendrogram cutting, candidate
// cut-height sampling, and the condensed-matrix kernels the mean
// silhouette score is built on (the score and the cut sweep live in
// internal/core), mirroring the paper's use of scipy/scikit-learn.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// DistMatrix is a symmetric pairwise distance matrix over n items with a
// zero diagonal, stored condensed (upper triangle only) in float32.
type DistMatrix struct {
	n    int
	data []float32
}

// NewDistMatrix returns an all-zero distance matrix over n items.
func NewDistMatrix(n int) *DistMatrix {
	if n < 0 {
		panic("cluster: negative size")
	}
	return &DistMatrix{n: n, data: make([]float32, n*(n-1)/2)}
}

// Len returns the number of items.
func (m *DistMatrix) Len() int { return m.n }

func (m *DistMatrix) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Offset of row i in the condensed upper triangle, then column.
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// At returns the distance between items i and j.
func (m *DistMatrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return float64(m.data[m.index(i, j)])
}

// Set stores the distance between items i and j (i ≠ j).
func (m *DistMatrix) Set(i, j int, d float64) {
	if i == j {
		if d != 0 {
			panic("cluster: nonzero diagonal")
		}
		return
	}
	m.data[m.index(i, j)] = float32(d)
}

// CopyPairs copies every pair of src into m at the positions pos: for
// all a < b, m.At(pos[a], pos[b]) takes src.At(a, b), the same float32
// bits. pos must be strictly increasing and below m.Len(), with one
// entry per src item. It lets a matrix over a superset of src's items
// keep the distances src already holds.
func (m *DistMatrix) CopyPairs(src *DistMatrix, pos []int) {
	if len(pos) != src.n {
		panic("cluster: CopyPairs needs one position per source item")
	}
	idx := 0
	for a, pa := range pos {
		// index(pa, pb) = base + pb for every pb > pa.
		base := rowOffset(m.n, pa) - pa - 1
		for _, pb := range pos[a+1:] {
			m.data[base+pb] = src.data[idx]
			idx++
		}
	}
}

// rowOffset returns the condensed-storage offset of row i for an n-item
// matrix: the number of pairs (i', j') with i' < i.
func rowOffset(n, i int) int { return i * (2*n - i - 1) / 2 }

// AccumRowByLabel adds row i's distances into sums bucketed by each
// item's label — sums[lab[j]] += At(i, j) for every j ≠ i, accumulated
// in ascending j. It is the silhouette scorers' hot loop: the two
// stride walks below read the condensed triangle directly, but the
// summation order and the per-element float32→float64 conversions are
// exactly At's, so the resulting sums are bit-identical to the naive
// per-element loop.
func (m *DistMatrix) AccumRowByLabel(i int, lab []int, sums []float64) {
	// j < i: column i of rows j, stride n−j−2 between consecutive rows.
	idx := i - 1 // index(0, i)
	for j := 0; j < i; j++ {
		sums[lab[j]] += float64(m.data[idx])
		idx += m.n - j - 2
	}
	// j > i: row i is contiguous from its offset.
	row := m.data[rowOffset(m.n, i):rowOffset(m.n, i+1)]
	for k, d := range row {
		sums[lab[i+1+k]] += float64(d)
	}
}

// AccumMultiByLabel computes every item's distance sums bucketed over
// the km multi-member clusters, plus each item's minimum distance to
// any singleton-cluster item. dlab maps items to dense multi-cluster
// ids (singleton members carry -1); acc is cluster-major:
// acc[c*n+i] = Σ_{dlab[j]=c} At(i, j), and minS[i] = min_{dlab[j]=-1,
// j≠i} At(i, j) (callers seed minS with +Inf). One contiguous pass
// over the condensed triangle scatters each stored pair into both
// endpoints' slots; unlike per-item AccumRowByLabel calls it never
// stride-walks a column. The cluster-major layout is what keeps the
// scatter cache-friendly at any accumulator size: per triangle row r
// the acc[lr*n+j] writes stream contiguously within row r's own
// cluster stripe, and the acc[lj*n+r] writes all land at offset r of
// at most km stripes — km cache lines, resident however large n×km
// grows. Per (item, bucket) the summed contributions still arrive in
// ascending j (rows below i land before row i is scanned), so each
// bucket is bit-identical to its AccumRowByLabel counterpart, and a
// min over exact float32→float64 conversions is order-independent, so
// minS[i] equals the smallest singleton bucket a full-width
// accumulation would produce.
func (m *DistMatrix) AccumMultiByLabel(dlab []int, km int, acc []float64, minS []float64) {
	idx := 0
	for r := 0; r < m.n; r++ {
		lr := dlab[r]
		var stripe []float64
		if lr >= 0 {
			stripe = acc[lr*m.n : (lr+1)*m.n]
		}
		for j := r + 1; j < m.n; j++ {
			d := float64(m.data[idx])
			idx++
			if lj := dlab[j]; lj >= 0 {
				acc[lj*m.n+r] += d
			} else if d < minS[r] {
				minS[r] = d
			}
			if stripe != nil {
				stripe[j] += d
			} else if d < minS[j] {
				minS[j] = d
			}
		}
	}
}

// unindex inverts index: it maps a condensed offset back to its (i, j)
// pair with i < j. The closed form solves the row quadratic; the
// adjustment loops absorb float rounding at large n.
func unindex(n, idx int) (int, int) {
	b := float64(2*n - 1)
	i := int((b - math.Sqrt(b*b-8*float64(idx))) / 2)
	if i < 0 {
		i = 0
	}
	for i+1 < n && rowOffset(n, i+1) <= idx {
		i++
	}
	for i > 0 && rowOffset(n, i) > idx {
		i--
	}
	return i, i + 1 + (idx - rowOffset(n, i))
}

// Compute fills a distance matrix over n items by evaluating f(i, j) for
// every pair i < j, in parallel. Work is scheduled as equal-size blocks
// of the condensed pair space claimed from an atomic cursor, so every
// worker gets the same share regardless of row length — feeding whole
// triangular rows would hand early workers ~n pairs and late workers
// almost none. f must be safe for concurrent calls.
func Compute(n int, f func(i, j int) float64) *DistMatrix {
	m := NewDistMatrix(n)
	total := len(m.data)
	if total == 0 {
		return m
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	// Blocks small enough to balance the tail, large enough that the
	// atomic claim is noise.
	block := total / (workers * 16)
	if block < 256 {
		block = 256
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := int(cursor.Add(int64(block))) - block
				if start >= total {
					return
				}
				end := start + block
				if end > total {
					end = total
				}
				i, j := unindex(n, start)
				for idx := start; idx < end; idx++ {
					m.data[idx] = float32(f(i, j))
					j++
					if j == n {
						i++
						j = i + 1
					}
				}
			}
		}()
	}
	wg.Wait()
	return m
}

// Validate checks that all distances are finite and non-negative.
func (m *DistMatrix) Validate() error {
	for idx, d := range m.data {
		if d < 0 || d != d {
			return fmt.Errorf("cluster: invalid distance %v at condensed index %d", d, idx)
		}
	}
	return nil
}
