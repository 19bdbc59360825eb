package textmine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referenceUpdate is the per-target SGD step that sgns.update must match
// bit for bit: for each target in order, one dot product against the ctx
// row, then that target's gradient folded into grad and its syn1 row
// updated; the ctx row takes grad after the last target.
func referenceUpdate(m *sgns, ctx int32, targets []int32, alpha float32) {
	dim := m.dim
	in := m.syn0[int(ctx)*dim : int(ctx)*dim+dim]
	grad := make([]float32, dim)
	for s, target := range targets {
		var label float32
		if s == 0 {
			label = 1
		} else if target == targets[0] {
			continue
		}
		out := m.syn1[int(target)*dim : int(target)*dim+dim]
		var dot float32
		for k := range in {
			dot += in[k] * out[k]
		}
		g := (label - m.sig.at(dot)) * alpha
		for k := range in {
			grad[k] += g * out[k]
			out[k] += g * in[k]
		}
	}
	for k := range in {
		in[k] += grad[k]
	}
}

// sameBits fails the test at the first weight whose bits differ.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// randomModel returns a model over words words with both matrices filled
// at a scale where the sigmoid is neither flat nor saturated.
func randomModel(words, dim int, seed int64) *sgns {
	rng := rand.New(rand.NewSource(seed))
	m := &sgns{
		dim:  dim,
		syn0: make([]float32, words*dim),
		syn1: make([]float32, words*dim),
		sig:  buildSigmoidTable(),
		grad: make([]float32, dim),
	}
	for i := range m.syn0 {
		m.syn0[i] = rng.Float32() - 0.5
		m.syn1[i] = rng.Float32() - 0.5
	}
	return m
}

func TestSGNSUpdateMatchesReference(t *testing.T) {
	const words, dim = 40, 32
	fixed := []struct {
		name    string
		targets []int32
	}{
		{"six-distinct", []int32{3, 7, 11, 19, 23, 31}},
		{"repeated-negative", []int32{3, 7, 11, 7, 23, 31}},
		{"negative-is-center", []int32{3, 7, 11, 3, 23, 31}},
		{"all-center", []int32{5, 5, 5, 5, 5, 5}},
	}
	for _, c := range fixed {
		t.Run(c.name, func(t *testing.T) {
			got, want := randomModel(words, dim, 1), randomModel(words, dim, 1)
			for step := 0; step < 50; step++ {
				ctx := int32(step % words)
				got.update(ctx, c.targets, 0.025)
				referenceUpdate(want, ctx, c.targets, 0.025)
				sameBits(t, "syn0", got.syn0, want.syn0)
				sameBits(t, "syn1", got.syn1, want.syn1)
			}
		})
	}
	// Random lists at three Negative settings; the small vocabulary makes
	// collisions common, so both of update's paths run.
	for _, negative := range []int{1, 5, 15} {
		t.Run(fmt.Sprintf("negative-%d", negative), func(t *testing.T) {
			got, want := randomModel(words, dim, 2), randomModel(words, dim, 2)
			rng := rand.New(rand.NewSource(int64(negative)))
			targets := make([]int32, negative+1)
			fused := 0
			for step := 0; step < 2000; step++ {
				for s := range targets {
					targets[s] = int32(rng.Intn(words))
				}
				if len(targets) == fusedTargets && distinct(targets) {
					fused++
				}
				ctx := int32(rng.Intn(words))
				alpha := float32(0.025 * (1 - 0.9*float64(step)/2000))
				got.update(ctx, targets, alpha)
				referenceUpdate(want, ctx, targets, alpha)
			}
			sameBits(t, "syn0", got.syn0, want.syn0)
			sameBits(t, "syn1", got.syn1, want.syn1)
			if negative == 5 && (fused == 0 || fused == 2000) {
				t.Fatalf("fused path took %d of 2000 lists, want some but not all", fused)
			}
		})
	}
}

// tinyDocs is trainTiny's corpus: two clearly separated topics.
func tinyDocs() [][]string {
	var docs [][]string
	// Topic A: prizes/winning. Topic B: weather alerts. Repetition gives
	// the tiny trainer enough signal.
	for i := 0; i < 60; i++ {
		docs = append(docs,
			Tokenize("congratulations you won a prize claim your reward now"),
			Tokenize("you are a winner claim the prize reward today"),
			Tokenize("weather alert heavy rain storm warning tonight"),
			Tokenize("storm warning severe weather rain alert issued"),
		)
	}
	return docs
}

// zipfDocs generates n documents of 4–20 tokens over a 600-word
// vocabulary with Zipf-distributed word frequencies.
func zipfDocs(n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 2, 599)
	docs := make([][]string, n)
	for i := range docs {
		doc := make([]string, 4+rng.Intn(17))
		for j := range doc {
			doc[j] = fmt.Sprintf("w%d", zipf.Uint64())
		}
		docs[i] = doc
	}
	return docs
}

// TestTrainingMatchesReference trains whole models twice, once with
// sgns.update and once with referenceUpdate, sharing everything else
// (subsampling included), and compares every weight's bits.
func TestTrainingMatchesReference(t *testing.T) {
	var threeWords [][]string
	for i := 0; i < 300; i++ {
		threeWords = append(threeWords, strings.Fields("red green blue green red blue blue"))
	}
	corpora := []struct {
		name string
		docs [][]string
		// wantFused: whether some pairs should take the fused kernel.
		// Three words cannot fill six distinct targets.
		wantFused bool
	}{
		{"tiny", tinyDocs(), true},
		{"three-words", threeWords, false},
		{"zipf-2000", zipfDocs(2000, 5), true},
	}
	for _, c := range corpora {
		for _, seed := range []int64{1, 42} {
			for _, window := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/seed%d/window%d", c.name, seed, window), func(t *testing.T) {
					cfg := Word2VecConfig{Seed: seed, Window: window}.withDefaults()
					pairs, fused := 0, 0
					counted := func(m *sgns, ctx int32, targets []int32, alpha float32) {
						pairs++
						if len(targets) == fusedTargets && distinct(targets) {
							fused++
						}
						m.update(ctx, targets, alpha)
					}
					got, _, err := train(c.docs, cfg, counted)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := train(c.docs, cfg, referenceUpdate)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, "syn0", got.syn0, want.syn0)
					sameBits(t, "syn1", got.syn1, want.syn1)
					if pairs == 0 || (fused > 0) != c.wantFused {
						t.Fatalf("fused kernel took %d of %d pairs; want some: %v", fused, pairs, c.wantFused)
					}
				})
			}
		}
	}
}

func TestSubsampleKeepShare(t *testing.T) {
	// Four words seen 4000, 400, 40 and 4 times: T = 4444, s·T = 4.444,
	// so p = 0.0344, 0.1165, 0.444 and 2.17.
	counts := []int{4000, 400, 40, 4}
	v := NewVocab()
	var doc []int
	for w, c := range counts {
		for i := 0; i < c; i++ {
			doc = append(doc, v.Add(fmt.Sprintf("w%d", w)))
		}
	}
	keep := keepProbs(v, len(doc))
	if keep[3] < 1 {
		t.Fatalf("p(w3) = %v, want >= 1", keep[3])
	}
	const epochs = 200
	rng := rand.New(rand.NewSource(3))
	kept := make([]int, len(counts))
	var buf []int
	for e := 0; e < epochs; e++ {
		buf = subsample(buf[:0], doc, keep, rng)
		for _, pos := range buf {
			kept[doc[pos]]++
		}
	}
	for w, c := range counts {
		n := float64(c * epochs)
		share := float64(kept[w]) / n
		p := math.Min(keep[w], 1)
		// Five binomial standard deviations; zero for p = 1, which must
		// never drop a token.
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(share-p) > tol {
			t.Errorf("word %d (seen %d times): kept share %.4f, want %.4f ± %.4f", w, c, share, p, tol)
		}
	}
}

func TestWord2VecDivergedIsError(t *testing.T) {
	if got := buildSigmoidTable().at(float32(math.NaN())); got != 0 {
		t.Errorf("sigmoid(NaN) = %v, want 0", got)
	}
	// Two documents of 300 distinct words each: every word is seen once in
	// 600 tokens, so subsampling keeps them all.
	docs := make([][]string, 2)
	for d := range docs {
		for i := 0; i < 300; i++ {
			docs[d] = append(docs[d], fmt.Sprintf("w%d", d*300+i))
		}
	}
	_, err := TrainWord2Vec(docs, Word2VecConfig{LearningRate: 1e30})
	if err == nil || !strings.Contains(err.Error(), "1e+30") {
		t.Fatalf("err = %v, want a divergence error naming learning rate 1e+30", err)
	}
	if _, err := TrainWord2Vec(docs, Word2VecConfig{}); err != nil {
		t.Fatalf("default learning rate: %v", err)
	}
}
