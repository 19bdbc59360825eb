// Package textmine implements the text-mining substrate the WPN clustering
// stage needs (§5.1.1 of the paper): a tokenizer for short notification
// texts, a vocabulary, a from-scratch word2vec (skip-gram with negative
// sampling) trainer used to build a term-similarity matrix, bag-of-words
// vectors, and the soft cosine similarity measure of Sidorov et al. that
// gensim's softcossim() implements.
package textmine

import "strings"

// stopwords are high-frequency function words excluded from bag-of-words
// vectors. The list is deliberately small: WPN texts are short and
// keyword-dense, and removing too much would erase the signal.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "is": true, "are": true,
	"to": true, "of": true, "on": true, "in": true, "for": true,
	"and": true, "or": true, "be": true, "has": true, "have": true,
	"you": true, "your": true, "it": true, "this": true, "that": true,
	"with": true, "at": true, "by": true, "from": true, "was": true,
}

// Tokenize lowercases text and splits it into alphanumeric tokens,
// preserving order and duplicates. Punctuation and symbols are separators;
// digits-only tokens are kept (prize amounts and phone numbers carry
// signal in scam messages).
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, c := range strings.ToLower(text) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b.WriteRune(c)
		default:
			flush()
		}
	}
	flush()
	return out
}

// ContentTokens tokenizes text and removes stopwords.
func ContentTokens(text string) []string {
	return DropStopwords(Tokenize(text))
}

// DropStopwords removes the stopwords from toks in place, keeping order,
// and returns the shortened slice. Bag-of-words features use it on a
// text's training tokens once training is done; the word2vec trainer
// keeps stopwords because they provide context windows.
func DropStopwords(toks []string) []string {
	out := toks[:0]
	for _, t := range toks {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}

// Vocab maps tokens to dense integer ids in insertion order.
type Vocab struct {
	ids    map[string]int
	tokens []string
	counts []int
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: make(map[string]int)}
}

// Add interns tok, increments its count, and returns its id.
func (v *Vocab) Add(tok string) int {
	if id, ok := v.ids[tok]; ok {
		v.counts[id]++
		return id
	}
	id := len(v.tokens)
	v.ids[tok] = id
	v.tokens = append(v.tokens, tok)
	v.counts = append(v.counts, 1)
	return id
}

// ID returns the id of tok and whether it is known.
func (v *Vocab) ID(tok string) (int, bool) {
	id, ok := v.ids[tok]
	return id, ok
}

// Token returns the token for id. It panics on out-of-range ids.
func (v *Vocab) Token(id int) string { return v.tokens[id] }

// Count returns how many times id was Added.
func (v *Vocab) Count(id int) int { return v.counts[id] }

// Len returns the vocabulary size.
func (v *Vocab) Len() int { return len(v.tokens) }

// IDs converts a token sequence to ids, adding unknown tokens.
func (v *Vocab) IDs(tokens []string) []int {
	out := make([]int, len(tokens))
	for i, t := range tokens {
		out[i] = v.Add(t)
	}
	return out
}

// LookupIDs converts tokens to ids, skipping tokens not in the vocabulary.
func (v *Vocab) LookupIDs(tokens []string) []int {
	out := make([]int, 0, len(tokens))
	for _, t := range tokens {
		if id, ok := v.ids[t]; ok {
			out = append(out, id)
		}
	}
	return out
}
