package textmine

import (
	"fmt"
	"math"
	"math/rand"
)

// Fixed shape of the skip-gram model.
const (
	// embeddingDim is the embedding dimensionality: WPN corpora are
	// small and short, and larger vectors overfit.
	embeddingDim = 32
	// negatives is the number of negative samples per positive pair.
	negatives = 5
)

// Word2VecConfig controls skip-gram-with-negative-sampling training.
type Word2VecConfig struct {
	// Window is the maximum skip-gram context distance. Default 4.
	Window int
	// Epochs is the number of passes over the corpus. Default 5.
	Epochs int
	// LearningRate is the initial SGD step size, decayed linearly to
	// LearningRate/10 over training. Default 0.025.
	LearningRate float64
	// Seed makes training deterministic.
	Seed int64
}

func (c Word2VecConfig) withDefaults() Word2VecConfig {
	if c.Window <= 0 {
		c.Window = 4
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.025
	}
	return c
}

// Embeddings holds trained word vectors for a vocabulary. Rows are
// L2-normalized copies of the input vectors, so Similarity is a plain dot
// product.
type Embeddings struct {
	vocab *Vocab
	dim   int
	vecs  []float32 // len = vocab.Len() * dim, L2-normalized rows
}

// Dim returns the embedding dimensionality.
func (e *Embeddings) Dim() int { return e.dim }

// Vocab returns the vocabulary the embeddings were trained over.
func (e *Embeddings) Vocab() *Vocab { return e.vocab }

// Vector returns the L2-normalized embedding row for term id. The returned
// slice aliases internal storage; callers must not modify it.
func (e *Embeddings) Vector(id int) []float32 {
	return e.vecs[id*e.dim : (id+1)*e.dim]
}

// Similarity returns the cosine similarity of two term ids in [-1, 1].
func (e *Embeddings) Similarity(i, j int) float64 {
	a, b := e.Vector(i), e.Vector(j)
	var dot float32
	for k := range a {
		dot += a[k] * b[k]
	}
	// Guard against float drift outside [-1, 1].
	d := float64(dot)
	if d > 1 {
		d = 1
	} else if d < -1 {
		d = -1
	}
	return d
}

// TrainWord2Vec trains skip-gram-with-negative-sampling embeddings over
// docs, where each document is a token sequence (stopwords included —
// they provide context). Frequent words are subsampled with gensim's
// default rate (see sample). It returns the trained embeddings and the
// vocabulary built from the corpus. An empty corpus is an error, and so
// is a learning rate large enough to drive a vector to NaN or ±Inf.
func TrainWord2Vec(docs [][]string, cfg Word2VecConfig) (*Embeddings, error) {
	cfg = cfg.withDefaults()
	m, vocab, err := train(docs, cfg, (*sgns).update)
	if err != nil {
		return nil, err
	}
	dim, n := embeddingDim, vocab.Len()
	for i, x := range m.syn0 {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return nil, fmt.Errorf("textmine: word2vec diverged at learning rate %g: the vector of %q is not finite", cfg.LearningRate, vocab.Token(i/dim))
		}
	}

	// Normalize rows into the Embeddings.
	vecs := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		row := m.syn0[i*dim : i*dim+dim]
		var norm float64
		for _, x := range row {
			norm += float64(x) * float64(x)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		dst := vecs[i*dim : i*dim+dim]
		for k, x := range row {
			dst[k] = float32(float64(x) / norm)
		}
	}
	return &Embeddings{vocab: vocab, dim: dim, vecs: vecs}, nil
}

// train runs SGD over docs with cfg (defaults already applied), calling
// update once per context pair, and returns the trained weights and the
// vocabulary. Every random draw comes from one rng seeded with cfg.Seed,
// in a fixed order, and update never draws, so training is a
// deterministic function of docs and cfg.
func train(docs [][]string, cfg Word2VecConfig, update func(m *sgns, ctx int32, targets []int32, alpha float32)) (*sgns, *Vocab, error) {
	vocab := NewVocab()
	corpus := make([][]int, 0, len(docs))
	totalTokens := 0
	for _, d := range docs {
		if len(d) == 0 {
			continue
		}
		corpus = append(corpus, vocab.IDs(d))
		totalTokens += len(d)
	}
	if vocab.Len() == 0 {
		return nil, nil, fmt.Errorf("textmine: empty corpus")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := embeddingDim
	n := vocab.Len()

	// Input (syn0) and output (syn1) matrices. syn0 random-initialized in
	// (-0.5/dim, 0.5/dim) as in the reference implementation; syn1 zeroed.
	m := &sgns{
		dim:  dim,
		syn0: make([]float32, n*dim),
		syn1: make([]float32, n*dim),
		sig:  buildSigmoidTable(),
		grad: make([]float32, dim),
	}
	for i := range m.syn0 {
		m.syn0[i] = (rng.Float32() - 0.5) / float32(dim)
	}

	table := buildUnigramTable(vocab, rng)
	keep := keepProbs(vocab, totalTokens)

	steps := 0
	totalSteps := cfg.Epochs * totalTokens
	if totalSteps == 0 {
		totalSteps = 1
	}
	targets := make([]int32, fusedTargets)
	var kept []int

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, doc := range corpus {
			kept = subsample(kept[:0], doc, keep, rng)
			for i, pos := range kept {
				// The rate decays over every token, kept or dropped, as
				// word2vec.c's word_count does.
				step := steps + pos + 1
				alpha := float32(cfg.LearningRate * (1 - 0.9*float64(step)/float64(totalSteps)))
				w := 1 + rng.Intn(cfg.Window) // dynamic window, as in word2vec.c
				lo, hi := max(i-w, 0), min(i+w, len(kept)-1)
				targets[0] = int32(doc[pos]) // the positive sample
				for c := lo; c <= hi; c++ {
					if c == i {
						continue
					}
					// The negative samples, all drawn before the
					// update touches any weight.
					for s := 1; s < len(targets); s++ {
						targets[s] = table[rng.Intn(len(table))]
					}
					update(m, int32(doc[kept[c]]), targets, alpha)
				}
			}
			steps += len(doc)
		}
	}
	return m, vocab, nil
}

// sample is the frequent-word subsampling rate, gensim's default
// sample=1e-3.
const sample = 1e-3

// keepProbs returns each word's probability of surviving subsampling in a
// corpus of total tokens: word2vec.c's rule p(w) = (sqrt(c/(s·T)) + 1)·s·T/c
// for a word seen c times, at s = sample and T = total. Words with
// p(w) ≥ 1 are always kept.
func keepProbs(v *Vocab, total int) []float64 {
	st := sample * float64(total)
	p := make([]float64, v.Len())
	for i := range p {
		c := float64(v.Count(i))
		p[i] = (math.Sqrt(c/st) + 1) * st / c
	}
	return p
}

// subsample appends to kept the positions in doc of the tokens that survive
// this pass's subsampling, drawing from rng once per token whose keep
// probability is below 1. Windows are then formed over the kept tokens
// only, as in word2vec.c.
func subsample(kept []int, doc []int, keep []float64, rng *rand.Rand) []int {
	for pos, w := range doc {
		if p := keep[w]; p >= 1 || rng.Float64() < p {
			kept = append(kept, pos)
		}
	}
	return kept
}

// sgns holds one training run's weights.
type sgns struct {
	dim  int
	syn0 []float32 // input vectors, one row per word
	syn1 []float32 // output vectors, one row per word
	sig  sigmoidTable
	grad []float32 // scratch gradient of the per-target path
}

// fusedTargets is the target count of every update and of its fused
// kernel: the center word plus the negative samples.
const fusedTargets = 1 + negatives

// update runs one SGD step of context word ctx against targets:
// targets[0] is the center word (label 1), the rest are drawn negatives
// (label 0), and a negative equal to the center is skipped, as in
// word2vec.c.
//
// Six pairwise-distinct targets take a fused kernel; every other list
// takes the per-target loop. Both give the same bits. The ctx row of
// syn0 is read by every target but written only after the last one, and
// each target writes only its own syn1 row, so a target's dot product
// can see an earlier target's update only when the two are the same row.
// The kernel keeps each dot product's and each gradient sum's order of
// additions.
func (m *sgns) update(ctx int32, targets []int32, alpha float32) {
	if len(targets) == fusedTargets && distinct(targets) {
		m.fused(ctx, targets, alpha)
		return
	}
	dim := m.dim
	in := m.syn0[int(ctx)*dim:][:dim]
	grad := m.grad
	clear(grad)
	for s, target := range targets {
		label := float32(0)
		if s == 0 {
			label = 1
		} else if target == targets[0] {
			continue
		}
		out := m.syn1[int(target)*dim:][:dim]
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

// fused is update's kernel for six distinct targets: one pass over the
// ctx row for all six dot products, each in its own accumulator, then one
// pass that updates the six syn1 rows and sums the ctx row's gradient in
// a register, adding the targets' terms in target order.
func (m *sgns) fused(ctx int32, targets []int32, alpha float32) {
	dim := m.dim
	in := m.syn0[int(ctx)*dim:][:dim]
	row := func(t int32) []float32 { return m.syn1[int(t)*dim:][:len(in)] }
	r0, r1, r2 := row(targets[0]), row(targets[1]), row(targets[2])
	r3, r4, r5 := row(targets[3]), row(targets[4]), row(targets[5])
	var d0, d1, d2, d3, d4, d5 float32
	for k, x := range in {
		d0 += x * r0[k]
		d1 += x * r1[k]
		d2 += x * r2[k]
		d3 += x * r3[k]
		d4 += x * r4[k]
		d5 += x * r5[k]
	}
	g0 := (1 - m.sig.at(d0)) * alpha
	g1 := (0 - m.sig.at(d1)) * alpha
	g2 := (0 - m.sig.at(d2)) * alpha
	g3 := (0 - m.sig.at(d3)) * alpha
	g4 := (0 - m.sig.at(d4)) * alpha
	g5 := (0 - m.sig.at(d5)) * alpha
	for k, x := range in {
		var gk float32
		gk += g0 * r0[k]
		r0[k] += g0 * x
		gk += g1 * r1[k]
		r1[k] += g1 * x
		gk += g2 * r2[k]
		r2[k] += g2 * x
		gk += g3 * r3[k]
		r3[k] += g3 * x
		gk += g4 * r4[k]
		r4[k] += g4 * x
		gk += g5 * r5[k]
		r5[k] += g5 * x
		in[k] = x + gk
	}
}

// distinct reports whether the ids are pairwise different.
func distinct(ids []int32) bool {
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if a == b {
				return false
			}
		}
	}
	return true
}

// buildUnigramTable builds the negative-sampling table with the standard
// count^0.75 smoothing.
func buildUnigramTable(v *Vocab, rng *rand.Rand) []int32 {
	const tableSize = 1 << 16
	table := make([]int32, 0, tableSize)
	var total float64
	pows := make([]float64, v.Len())
	for i := 0; i < v.Len(); i++ {
		pows[i] = math.Pow(float64(v.Count(i)), 0.75)
		total += pows[i]
	}
	for i := 0; i < v.Len(); i++ {
		slots := int(pows[i] / total * tableSize)
		if slots < 1 {
			slots = 1
		}
		for s := 0; s < slots; s++ {
			table = append(table, int32(i))
		}
	}
	// Shuffle so truncated sampling (rng.Intn(len)) stays unbiased.
	rng.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
	return table
}

// sigmoidTable is a precomputed logistic function over [-6, 6].
type sigmoidTable []float32

func buildSigmoidTable() sigmoidTable {
	const size = 1024
	t := make(sigmoidTable, size)
	for i := range t {
		x := (float64(i)/size*2 - 1) * 6
		t[i] = float32(1 / (1 + math.Exp(-x)))
	}
	return t
}

func (t sigmoidTable) at(x float32) float32 {
	if x >= 6 {
		return 1
	}
	if !(x > -6) { // also NaN, which int() would turn into a negative index
		return 0
	}
	i := int((x + 6) / 12 * float32(len(t)))
	if i >= len(t) {
		i = len(t) - 1
	}
	return t[i]
}
