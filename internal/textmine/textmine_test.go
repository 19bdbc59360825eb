package textmine

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Your payment info has been leaked!", []string{"your", "payment", "info", "has", "been", "leaked"}},
		{"WIN $500 NOW!!!", []string{"win", "500", "now"}},
		{"", nil},
		{"...", nil},
		{"claim-your-prize", []string{"claim", "your", "prize"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContentTokensDropsStopwords(t *testing.T) {
	got := ContentTokens("Your payment info has been leaked")
	want := []string{"payment", "info", "been", "leaked"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestVocab(t *testing.T) {
	v := NewVocab()
	a := v.Add("alpha")
	b := v.Add("beta")
	a2 := v.Add("alpha")
	if a != a2 {
		t.Fatalf("Add is not idempotent: %d vs %d", a, a2)
	}
	if a == b {
		t.Fatal("distinct tokens share an id")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Count(a) != 2 || v.Count(b) != 1 {
		t.Fatalf("counts = %d, %d; want 2, 1", v.Count(a), v.Count(b))
	}
	if v.Token(a) != "alpha" {
		t.Fatalf("Token(%d) = %q", a, v.Token(a))
	}
	if _, ok := v.ID("gamma"); ok {
		t.Fatal("unknown token resolved")
	}
	ids := v.LookupIDs([]string{"alpha", "gamma", "beta"})
	if !reflect.DeepEqual(ids, []int{a, b}) {
		t.Fatalf("LookupIDs = %v", ids)
	}
}

// trainTiny trains embeddings on a corpus with two clearly separated
// topics and returns them with the vocab.
func trainTiny(t *testing.T) *Embeddings {
	t.Helper()
	emb, err := TrainWord2Vec(tinyDocs(), Word2VecConfig{Seed: 42})
	if err != nil {
		t.Fatalf("TrainWord2Vec: %v", err)
	}
	return emb
}

func TestWord2VecGroupsTopics(t *testing.T) {
	emb := trainTiny(t)
	v := emb.Vocab()
	id := func(tok string) int {
		i, ok := v.ID(tok)
		if !ok {
			t.Fatalf("token %q not in vocab", tok)
		}
		return i
	}
	within := emb.Similarity(id("prize"), id("reward"))
	across := emb.Similarity(id("prize"), id("storm"))
	if within <= across {
		t.Errorf("within-topic similarity %.3f <= across-topic %.3f", within, across)
	}
}

func TestWord2VecDeterministic(t *testing.T) {
	docs := [][]string{Tokenize("alpha beta gamma delta"), Tokenize("beta gamma epsilon")}
	a, err := TrainWord2Vec(docs, Word2VecConfig{Seed: 7, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainWord2Vec(docs, Word2VecConfig{Seed: 7, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.vecs, b.vecs) {
		t.Error("same seed produced different embeddings")
	}
}

func TestWord2VecEmptyCorpus(t *testing.T) {
	if _, err := TrainWord2Vec(nil, Word2VecConfig{}); err == nil {
		t.Fatal("expected error for empty corpus")
	}
	if _, err := TrainWord2Vec([][]string{{}, {}}, Word2VecConfig{}); err == nil {
		t.Fatal("expected error for corpus of empty docs")
	}
}

func TestEmbeddingRowsNormalized(t *testing.T) {
	emb := trainTiny(t)
	for i := 0; i < emb.Vocab().Len(); i++ {
		var norm float64
		for _, x := range emb.Vector(i) {
			norm += float64(x) * float64(x)
		}
		if math.Abs(norm-1) > 1e-3 {
			t.Fatalf("row %d norm² = %v, want 1", i, norm)
		}
	}
}

func TestSimilaritySelfIsOne(t *testing.T) {
	emb := trainTiny(t)
	for i := 0; i < emb.Vocab().Len(); i++ {
		if s := emb.Similarity(i, i); math.Abs(s-1) > 1e-3 {
			t.Fatalf("Similarity(%d,%d) = %v, want 1", i, i, s)
		}
	}
}

func TestNewBOW(t *testing.T) {
	b := NewBOW([]int{3, 1, 3, 2, 3})
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if !reflect.DeepEqual(b.Terms(), []int{1, 2, 3}) {
		t.Fatalf("Terms = %v", b.Terms())
	}
	if !reflect.DeepEqual(b.weights, []float64{1, 1, 3}) {
		t.Fatalf("weights = %v", b.weights)
	}
}

func TestSoftCosineIdenticalDocs(t *testing.T) {
	emb := trainTiny(t)
	ids := emb.Vocab().LookupIDs(Tokenize("claim your prize reward"))
	b := NewBOW(ids)
	if s := SoftCosine(b, b, emb, SoftCosineOptions{}); math.Abs(s-1) > 1e-9 {
		t.Errorf("SoftCosine(x, x) = %v, want 1", s)
	}
}

func TestSoftCosineEmpty(t *testing.T) {
	emb := trainTiny(t)
	empty := NewBOW(nil)
	full := NewBOW(emb.Vocab().LookupIDs(Tokenize("prize")))
	if s := SoftCosine(empty, empty, emb, SoftCosineOptions{}); s != 1 {
		t.Errorf("SoftCosine(∅, ∅) = %v, want 1", s)
	}
	if s := SoftCosine(empty, full, emb, SoftCosineOptions{}); s != 0 {
		t.Errorf("SoftCosine(∅, x) = %v, want 0", s)
	}
}

func TestSoftCosineBeatsHardCosineOnSynonyms(t *testing.T) {
	emb := trainTiny(t)
	v := emb.Vocab()
	// Disjoint token sets from the same topic: hard cosine would be 0,
	// soft cosine must be positive.
	a := NewBOW(v.LookupIDs(Tokenize("won prize")))
	b := NewBOW(v.LookupIDs(Tokenize("winner reward")))
	if a.Len() == 0 || b.Len() == 0 {
		t.Fatal("test tokens missing from vocab")
	}
	s := SoftCosine(a, b, emb, SoftCosineOptions{})
	if s <= 0 {
		t.Errorf("soft cosine of same-topic disjoint docs = %v, want > 0", s)
	}
	cross := NewBOW(v.LookupIDs(Tokenize("storm rain")))
	sc := SoftCosine(a, cross, emb, SoftCosineOptions{})
	if s <= sc {
		t.Errorf("same-topic soft cosine %v <= cross-topic %v", s, sc)
	}
}

func TestSoftCosineSymmetricAndBounded(t *testing.T) {
	emb := trainTiny(t)
	v := emb.Vocab()
	texts := []string{
		"claim your prize", "weather storm alert", "winner reward now",
		"rain warning tonight", "congratulations you won",
	}
	bows := make([]BOW, len(texts))
	for i, s := range texts {
		bows[i] = NewBOW(v.LookupIDs(Tokenize(s)))
	}
	for i := range bows {
		for j := range bows {
			sij := SoftCosine(bows[i], bows[j], emb, SoftCosineOptions{})
			sji := SoftCosine(bows[j], bows[i], emb, SoftCosineOptions{})
			if math.Abs(sij-sji) > 1e-9 {
				t.Fatalf("asymmetric: s(%d,%d)=%v s(%d,%d)=%v", i, j, sij, j, i, sji)
			}
			if sij < 0 || sij > 1 {
				t.Fatalf("out of range: s(%d,%d)=%v", i, j, sij)
			}
		}
	}
}

func TestSoftCosineDistance(t *testing.T) {
	emb := trainTiny(t)
	b := NewBOW(emb.Vocab().LookupIDs(Tokenize("prize reward")))
	if d := SoftCosineDistance(b, b, emb, SoftCosineOptions{}); math.Abs(d) > 1e-9 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

func TestDocVectorNormalized(t *testing.T) {
	emb := trainTiny(t)
	b := NewBOW(emb.Vocab().LookupIDs(Tokenize("claim prize reward winner")))
	v := DocVector(b, emb)
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-3 {
		t.Errorf("DocVector norm² = %v, want 1", norm)
	}
	if d := CosineDistance(v, v); math.Abs(d) > 1e-3 {
		t.Errorf("CosineDistance(v, v) = %v, want 0", d)
	}
}

func TestDocVectorEmptyIsZero(t *testing.T) {
	emb := trainTiny(t)
	v := DocVector(NewBOW(nil), emb)
	for _, x := range v {
		if x != 0 {
			t.Fatalf("empty doc vector = %v, want zeros", v)
		}
	}
}

func TestSigmoidTable(t *testing.T) {
	sig := buildSigmoidTable()
	if got := sig.at(0); math.Abs(float64(got)-0.5) > 0.02 {
		t.Errorf("sigmoid(0) = %v, want ~0.5", got)
	}
	if got := sig.at(10); got != 1 {
		t.Errorf("sigmoid(10) = %v, want 1", got)
	}
	if got := sig.at(-10); got != 0 {
		t.Errorf("sigmoid(-10) = %v, want 0", got)
	}
	// Monotonic.
	prev := float32(-1)
	for x := float32(-6); x <= 6; x += 0.25 {
		y := sig.at(x)
		if y < prev {
			t.Fatalf("sigmoid not monotonic at %v", x)
		}
		prev = y
	}
}

func TestBOWQuickProperties(t *testing.T) {
	f := func(ids []uint8) bool {
		in := make([]int, len(ids))
		for i, x := range ids {
			in[i] = int(x % 16)
		}
		b := NewBOW(in)
		// Total weight equals input length.
		var total float64
		for _, w := range b.weights {
			total += w
		}
		if total != float64(len(in)) {
			return false
		}
		// Terms sorted and unique.
		for i := 1; i < len(b.ids); i++ {
			if b.ids[i] <= b.ids[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
