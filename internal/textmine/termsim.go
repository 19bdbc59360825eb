package textmine

import "math"

// TermSimMatrix is the dense precomputed term-similarity matrix S used by
// soft cosine at scale: S[i][j] = max(0, cos(wᵢ, wⱼ))^exponent with the
// threshold applied, exactly as termSim computes lazily. Precomputing S
// turns each pairwise document comparison into table lookups, which is
// what makes clustering thousands of WPN messages tractable.
type TermSimMatrix struct {
	n    int
	data []float32
}

// NewTermSimMatrix materializes S for all vocabulary pairs.
func NewTermSimMatrix(e *Embeddings) *TermSimMatrix {
	n := e.Vocab().Len()
	m := &TermSimMatrix{n: n, data: make([]float32, n*n)}
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
		for j := i + 1; j < n; j++ {
			s := float32(termSim(e, i, j))
			m.data[i*n+j] = s
			m.data[j*n+i] = s
		}
	}
	return m
}

// Len returns the vocabulary size.
func (m *TermSimMatrix) Len() int { return m.n }

// At returns S[i][j].
func (m *TermSimMatrix) At(i, j int) float64 { return float64(m.data[i*m.n+j]) }

func quadFormM(a, b BOW, m *TermSimMatrix) float64 {
	var sum float64
	for x, i := range a.ids {
		wa := a.weights[x]
		row := m.data[i*m.n : (i+1)*m.n]
		for y, j := range b.ids {
			if s := row[j]; s != 0 {
				sum += wa * float64(s) * b.weights[y]
			}
		}
	}
	return sum
}

// SoftCosineWith is SoftCosineNormed over freshly computed self norms.
func SoftCosineWith(a, b BOW, m *TermSimMatrix) float64 {
	return SoftCosineNormed(a, b, m, selfNorm(a, m), selfNorm(b, m))
}

// selfNorm computes sqrt(aᵀ·S·a), the norm DocKernel caches per
// document.
func selfNorm(a BOW, m *TermSimMatrix) float64 {
	return math.Sqrt(quadFormM(a, a, m))
}

// SoftCosineNormed computes the soft cosine similarity of two
// bag-of-words vectors in [0, 1] given their self norms, with the
// embedding cosines as the term-similarity matrix (Sidorov et al., as
// implemented by gensim softcossim). Two empty vectors have similarity
// 1; an empty versus non-empty vector, 0.
func SoftCosineNormed(a, b BOW, m *TermSimMatrix, normA, normB float64) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	num := quadFormM(a, b, m)
	if num <= 0 {
		return 0
	}
	den := normA * normB
	if den == 0 {
		return 0
	}
	s := num / den
	if s > 1 {
		s = 1
	}
	return s
}
