package textmine

import (
	"math"
	"testing"
)

func TestComputeIDF(t *testing.T) {
	// Term 0 in every doc, term 1 in one doc, term 2 never.
	docs := [][]int{{0, 1}, {0}, {0, 0}}
	idf := ComputeIDF(docs, 3)
	if idf.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", idf.NumDocs())
	}
	common, rare, never := idf.Weight(0), idf.Weight(1), idf.Weight(2)
	if !(never > rare && rare > common) {
		t.Errorf("IDF ordering wrong: common=%v rare=%v never=%v", common, rare, never)
	}
	// Smooth variant: everything >= 1.
	for i := 0; i < 3; i++ {
		if idf.Weight(i) < 1 {
			t.Errorf("Weight(%d) = %v < 1", i, idf.Weight(i))
		}
	}
	if idf.Weight(-1) != 0 || idf.Weight(99) != 0 {
		t.Error("out-of-range ids not zero")
	}
}

func TestComputeIDFIgnoresOutOfRange(t *testing.T) {
	idf := ComputeIDF([][]int{{0, 99, -5}}, 2)
	if idf.Weight(0) <= 0 {
		t.Error("valid id lost")
	}
}

func TestNewBOWTFIDF(t *testing.T) {
	docs := [][]int{{0, 1}, {0}, {0}, {0}}
	idf := ComputeIDF(docs, 2)
	bow := NewBOWTFIDF([]int{0, 0, 1}, idf)
	// Term 0 appears twice but is common; term 1 once but rare. TF-IDF
	// shrinks the gap: weight(0) = 2*idf0, weight(1) = 1*idf1.
	var w0, w1 float64
	for x, id := range bow.ids {
		switch id {
		case 0:
			w0 = bow.weights[x]
		case 1:
			w1 = bow.weights[x]
		}
	}
	if math.Abs(w0-2*idf.Weight(0)) > 1e-9 {
		t.Errorf("w0 = %v, want %v", w0, 2*idf.Weight(0))
	}
	if math.Abs(w1-idf.Weight(1)) > 1e-9 {
		t.Errorf("w1 = %v, want %v", w1, idf.Weight(1))
	}
	if w1/w0 <= 0.5 {
		t.Errorf("rare term not boosted relative to raw TF: %v vs %v", w1, w0)
	}
}

func TestTFIDFWithSoftCosine(t *testing.T) {
	emb := trainTiny(t)
	v := emb.Vocab()
	var docs [][]int
	for _, s := range []string{
		"claim your prize now", "weather storm alert", "claim reward today",
	} {
		docs = append(docs, v.LookupIDs(Tokenize(s)))
	}
	idf := ComputeIDF(docs, v.Len())
	m := NewTermSimMatrix(emb)
	a := NewBOWTFIDF(v.LookupIDs(Tokenize("claim your prize")), idf)
	b := NewBOWTFIDF(v.LookupIDs(Tokenize("claim reward")), idf)
	c := NewBOWTFIDF(v.LookupIDs(Tokenize("storm alert")), idf)
	same := SoftCosineWith(a, b, m)
	diff := SoftCosineWith(a, c, m)
	if same <= diff {
		t.Errorf("TF-IDF soft cosine lost topical ordering: same=%v diff=%v", same, diff)
	}
}
