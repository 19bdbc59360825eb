package textmine

import (
	"math"
	"sort"
)

// BOW is a sparse bag-of-words vector: term-id → weight, stored as
// parallel sorted slices for cache-friendly pairwise operations.
type BOW struct {
	ids     []int
	weights []float64
}

// NewBOW builds a term-frequency bag-of-words vector from token ids.
func NewBOW(ids []int) BOW {
	counts := make(map[int]float64, len(ids))
	for _, id := range ids {
		counts[id]++
	}
	out := BOW{
		ids:     make([]int, 0, len(counts)),
		weights: make([]float64, 0, len(counts)),
	}
	for id := range counts {
		out.ids = append(out.ids, id)
	}
	sort.Ints(out.ids)
	for _, id := range out.ids {
		out.weights = append(out.weights, counts[id])
	}
	return out
}

// Len returns the number of distinct terms.
func (b BOW) Len() int { return len(b.ids) }

// Terms returns the sorted term ids. The slice aliases internal storage.
func (b BOW) Terms() []int { return b.ids }

// Gensim's term-similarity-matrix defaults: a raw embedding cosine at
// or below simThreshold is treated as zero (so negative similarities
// are dropped), and surviving similarities are raised to simExponent,
// which sharpens the matrix toward identity.
const (
	simThreshold = 0
	simExponent  = 2
)

// termSim returns the (thresholded, exponentiated) similarity entry
// S[i][j] used by soft cosine.
func termSim(e *Embeddings, i, j int) float64 {
	if i == j {
		return 1
	}
	s := e.Similarity(i, j)
	if s <= simThreshold {
		return 0
	}
	return math.Pow(s, simExponent)
}

// DocVector returns the L2-normalized sum of (normalized) term embeddings
// weighted by term frequency — the fast document representation whose
// plain cosine approximates soft cosine without the threshold/exponent
// adjustments. The pipeline uses the exact DocKernel.SoftCosine;
// DocVector backs the large-scale fast path and validation tooling.
func DocVector(b BOW, e *Embeddings) []float32 {
	out := make([]float32, e.Dim())
	for x, id := range b.ids {
		w := float32(b.weights[x])
		v := e.Vector(id)
		for k := range out {
			out[k] += w * v[k]
		}
	}
	var norm float64
	for _, x := range out {
		norm += float64(x) * float64(x)
	}
	if norm > 0 {
		n := float32(math.Sqrt(norm))
		for k := range out {
			out[k] /= n
		}
	}
	return out
}

// CosineDistance returns 1 − dot(a, b) for two L2-normalized vectors,
// clamped to [0, 2].
func CosineDistance(a, b []float32) float64 {
	var dot float64
	for k := range a {
		dot += float64(a[k]) * float64(b[k])
	}
	d := 1 - dot
	if d < 0 {
		d = 0
	}
	if d > 2 {
		d = 2
	}
	return d
}
