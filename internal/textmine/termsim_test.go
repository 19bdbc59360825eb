package textmine

import (
	"math"
	"testing"
)

// lazySoftCosine is the oracle for the matrix path: it reads every
// term similarity straight from the embeddings (termSim) and
// recomputes both self quad-forms on every call, all in float64.
func lazySoftCosine(a, b BOW, e *Embeddings) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	num := lazyQuadForm(a, b, e)
	if num <= 0 {
		return 0
	}
	den := lazyNorm(a, e) * lazyNorm(b, e)
	if den == 0 {
		return 0
	}
	return math.Min(num/den, 1)
}

// lazyNorm is sqrt(aᵀ·S·a) under the lazily evaluated matrix.
func lazyNorm(a BOW, e *Embeddings) float64 {
	return math.Sqrt(lazyQuadForm(a, a, e))
}

// lazyQuadForm computes aᵀ·S·b for sparse vectors a and b under the
// implied term-similarity matrix S.
func lazyQuadForm(a, b BOW, e *Embeddings) float64 {
	var sum float64
	for x, i := range a.ids {
		for y, j := range b.ids {
			if s := termSim(e, i, j); s != 0 {
				sum += a.weights[x] * s * b.weights[y]
			}
		}
	}
	return sum
}

func TestTermSimMatrixMatchesLazy(t *testing.T) {
	emb := trainTiny(t)
	m := NewTermSimMatrix(emb)
	if m.Len() != emb.Vocab().Len() {
		t.Fatalf("Len = %d, want %d", m.Len(), emb.Vocab().Len())
	}
	for i := 0; i < m.Len(); i++ {
		for j := 0; j < m.Len(); j++ {
			lazy := termSim(emb, i, j)
			if math.Abs(m.At(i, j)-lazy) > 1e-6 {
				t.Fatalf("S[%d][%d] = %v, lazy = %v", i, j, m.At(i, j), lazy)
			}
		}
	}
}

func TestSoftCosineWithMatchesExact(t *testing.T) {
	emb := trainTiny(t)
	v := emb.Vocab()
	m := NewTermSimMatrix(emb)
	texts := []string{
		"claim your prize now", "weather storm alert", "winner reward",
		"congratulations you won a prize", "rain warning",
	}
	bows := make([]BOW, len(texts))
	for i, s := range texts {
		bows[i] = NewBOW(v.LookupIDs(Tokenize(s)))
	}
	for i := range bows {
		for j := range bows {
			exact := lazySoftCosine(bows[i], bows[j], emb)
			fast := SoftCosineWith(bows[i], bows[j], m)
			if math.Abs(exact-fast) > 1e-6 {
				t.Fatalf("pair (%d,%d): exact %v fast %v", i, j, exact, fast)
			}
		}
	}
}

func TestSoftCosineNormed(t *testing.T) {
	emb := trainTiny(t)
	v := emb.Vocab()
	m := NewTermSimMatrix(emb)
	a := NewBOW(v.LookupIDs(Tokenize("claim your prize")))
	b := NewBOW(v.LookupIDs(Tokenize("winner reward today")))
	na, nb := selfNorm(a, m), selfNorm(b, m)
	if math.Abs(na-lazyNorm(a, emb)) > 1e-6*na || math.Abs(nb-lazyNorm(b, emb)) > 1e-6*nb {
		t.Errorf("norms %v, %v; lazy %v, %v", na, nb, lazyNorm(a, emb), lazyNorm(b, emb))
	}
	want := lazySoftCosine(a, b, emb)
	got := SoftCosineNormed(a, b, m, na, nb)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("normed %v, want %v", got, want)
	}
	empty := NewBOW(nil)
	if s := SoftCosineNormed(empty, empty, m, 0, 0); s != 1 {
		t.Errorf("normed(∅,∅) = %v", s)
	}
	if s := SoftCosineNormed(empty, a, m, 0, na); s != 0 {
		t.Errorf("normed(∅,a) = %v", s)
	}
}
