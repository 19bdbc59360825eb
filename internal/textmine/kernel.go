package textmine

import (
	"runtime"
	"sync"
)

// DocKernel is the pairwise-kernel layer of the mining pipeline: for a
// fixed document set it precomputes, once, everything the n²/2 pairwise
// soft-cosine calls would otherwise recompute per pair — the token
// bag-of-words vectors, each document's self quad-form norm
// sqrt(aᵀ·S·a), and (when embeddings are supplied) the L2-normalized
// document vectors backing the approximate fast path. After construction
// every exact pairwise call costs exactly one cross quad-form; the
// O(n·t²) norm precomputation replaces O(n²·t²) redundant work.
//
// All methods are safe for concurrent use: construction is the only
// mutation.
type DocKernel struct {
	sim   *TermSimMatrix
	bows  []BOW
	norms []float64
	vecs  [][]float32 // nil when built without embeddings
}

// NewDocKernel builds the kernel over bows using the precomputed
// term-similarity matrix sim. If e is non-nil, per-document vectors
// (DocVector) are also cached for ApproxDistance. Norms and vectors are
// computed in parallel across GOMAXPROCS.
func NewDocKernel(bows []BOW, sim *TermSimMatrix, e *Embeddings) *DocKernel {
	k := &DocKernel{
		sim:   sim,
		bows:  bows,
		norms: make([]float64, len(bows)),
	}
	if e != nil {
		k.vecs = make([][]float32, len(bows))
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(bows) {
		workers = len(bows)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bows); i += workers {
				k.norms[i] = selfNorm(bows[i], sim)
				if e != nil {
					k.vecs[i] = DocVector(bows[i], e)
				}
			}
		}(w)
	}
	wg.Wait()
	return k
}

// Len returns the number of documents.
func (k *DocKernel) Len() int { return len(k.bows) }

// BOW returns the i-th document's bag-of-words vector.
func (k *DocKernel) BOW(i int) BOW { return k.bows[i] }

// Norm returns the cached self quad-form norm sqrt(aᵀ·S·a) of document i.
func (k *DocKernel) Norm(i int) float64 { return k.norms[i] }

// Vec returns the cached L2-normalized document vector of document i, or
// nil when the kernel was built without embeddings. The slice aliases
// internal storage.
func (k *DocKernel) Vec(i int) []float32 {
	if k.vecs == nil {
		return nil
	}
	return k.vecs[i]
}

// SoftCosine returns the exact soft cosine similarity of documents i and
// j using the cached norms — bit-identical to SoftCosineWith over the
// same matrix, at a third of the quad-form work.
func (k *DocKernel) SoftCosine(i, j int) float64 {
	return SoftCosineNormed(k.bows[i], k.bows[j], k.sim, k.norms[i], k.norms[j])
}

// Distance returns 1 − SoftCosine(i, j).
func (k *DocKernel) Distance(i, j int) float64 { return 1 - k.SoftCosine(i, j) }

// ApproxDistance returns the plain cosine distance between the cached
// document vectors — the cheap O(dim) stand-in for the exact soft cosine
// used by large-scale screening. It panics if the kernel was built
// without embeddings.
func (k *DocKernel) ApproxDistance(i, j int) float64 {
	return CosineDistance(k.vecs[i], k.vecs[j])
}
