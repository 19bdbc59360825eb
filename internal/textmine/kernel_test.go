package textmine

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// kernelCorpus trains tiny embeddings over a deterministic corpus and
// returns the BOWs and supporting structures shared by the kernel tests.
func kernelCorpus(t testing.TB, seed int64, nDocs int) ([]BOW, *Embeddings, *TermSimMatrix) {
	t.Helper()
	words := []string{
		"win", "prize", "claim", "now", "free", "iphone", "virus",
		"alert", "scan", "device", "update", "video", "watch", "hot",
		"deal", "save", "money", "click", "here", "urgent",
	}
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]string, nDocs)
	for i := range docs {
		ln := 3 + rng.Intn(6)
		for w := 0; w < ln; w++ {
			docs[i] = append(docs[i], words[rng.Intn(len(words))])
		}
	}
	emb, err := TrainWord2Vec(docs, Word2VecConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sim := NewTermSimMatrix(emb)
	vocab := emb.Vocab()
	bows := make([]BOW, nDocs)
	for i, d := range docs {
		bows[i] = NewBOW(vocab.LookupIDs(d))
	}
	// An empty document exercises the degenerate branches.
	bows = append(bows, NewBOW(nil))
	return bows, emb, sim
}

func TestDocKernelMatchesSoftCosineWith(t *testing.T) {
	bows, emb, sim := kernelCorpus(t, 7, 30)
	k := NewDocKernel(bows, sim, emb)
	if k.Len() != len(bows) {
		t.Fatalf("Len = %d, want %d", k.Len(), len(bows))
	}
	for i := 0; i < len(bows); i++ {
		for j := 0; j < len(bows); j++ {
			want := SoftCosineWith(bows[i], bows[j], sim)
			if got := k.SoftCosine(i, j); got != want {
				t.Fatalf("kernel SoftCosine(%d,%d) = %v, want %v (bit-identical)", i, j, got, want)
			}
			if got := k.Distance(i, j); got != 1-want {
				t.Fatalf("kernel Distance(%d,%d) = %v, want %v", i, j, got, 1-want)
			}
		}
	}
}

func TestDocKernelNormsMatchSelfNorm(t *testing.T) {
	bows, emb, sim := kernelCorpus(t, 11, 12)
	k := NewDocKernel(bows, sim, emb)
	for i := range bows {
		// The matrix holds float32 similarities, the oracle float64 ones.
		if got, want := k.Norm(i), lazyNorm(bows[i], emb); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("Norm(%d) = %v, want the lazy norm %v", i, got, want)
		}
	}
}

func TestDocKernelVectors(t *testing.T) {
	bows, emb, sim := kernelCorpus(t, 3, 10)
	k := NewDocKernel(bows, sim, emb)
	for i := range bows {
		want := DocVector(bows[i], emb)
		got := k.Vec(i)
		if len(got) != len(want) {
			t.Fatalf("Vec(%d) length %d, want %d", i, len(got), len(want))
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("Vec(%d)[%d] = %v, want %v", i, d, got[d], want[d])
			}
		}
		if d := k.ApproxDistance(i, i); d > 1e-6 {
			// Empty docs have zero vectors (distance 1 to themselves).
			if bows[i].Len() != 0 {
				t.Fatalf("ApproxDistance(%d,%d) = %v, want ~0", i, i, d)
			}
		}
	}
	// Without embeddings, vectors are absent but norms still work.
	bare := NewDocKernel(bows, sim, nil)
	if bare.Vec(0) != nil {
		t.Error("kernel built without embeddings returned a vector")
	}
	if bare.Norm(1) != k.Norm(1) {
		t.Error("norms differ with/without embeddings")
	}
}

func TestDocKernelConcurrentReads(t *testing.T) {
	bows, emb, sim := kernelCorpus(t, 5, 20)
	k := NewDocKernel(bows, sim, emb)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < k.Len(); i++ {
				for j := 0; j < k.Len(); j++ {
					_ = k.SoftCosine(i, j)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSoftCosineWithNormsMatchesSoftCosine: soft cosine over norms
// cached once per document, as DocKernel serves it, matches the lazy
// per-pair oracle, which recomputes both norms on every call — over a
// corpus with an empty document.
func TestSoftCosineWithNormsMatchesSoftCosine(t *testing.T) {
	bows, emb, sim := kernelCorpus(t, 9, 15)
	k := NewDocKernel(bows, sim, nil)
	for i := range bows {
		for j := range bows {
			want := lazySoftCosine(bows[i], bows[j], emb)
			if got := SoftCosineNormed(bows[i], bows[j], sim, k.Norm(i), k.Norm(j)); math.Abs(got-want) > 1e-6 {
				t.Fatalf("SoftCosineNormed(%d,%d) = %v, lazy %v", i, j, got, want)
			}
		}
	}
}
