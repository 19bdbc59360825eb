// Package simhash implements 64-bit SimHash fingerprints over token
// streams. The paper's manual verification judges landing pages by
// visual similarity to known malicious pages (§5.4, factor 1); since the
// simulated browser renders pages as text, a locality-sensitive content
// fingerprint is the faithful stand-in for screenshot comparison: nearly
// identical scam pages (same kit, different domain) hash within a few
// bits of each other, while unrelated pages are ~32 bits apart.
package simhash

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"strconv"
)

// Hash is a 64-bit SimHash fingerprint.
type Hash uint64

// Of computes the SimHash of a token sequence. Tokens contribute their
// FNV-64a hashes; per-bit majority voting forms the fingerprint. An
// empty sequence hashes to 0.
func Of(tokens []string) Hash {
	if len(tokens) == 0 {
		return 0
	}
	var counts [64]int
	for _, tok := range tokens {
		h := fnv.New64a()
		h.Write([]byte(tok)) //nolint:errcheck
		v := h.Sum64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				counts[b]++
			} else {
				counts[b]--
			}
		}
	}
	var out Hash
	for b := 0; b < 64; b++ {
		if counts[b] > 0 {
			out |= 1 << uint(b)
		}
	}
	return out
}

// Distance returns the Hamming distance between two fingerprints
// (0..64).
func Distance(a, b Hash) int { return bits.OnesCount64(uint64(a ^ b)) }

// Near reports whether two fingerprints are within k bits.
func Near(a, b Hash, k int) bool { return Distance(a, b) <= k }

// String renders the hash as fixed-width hex.
func (h Hash) String() string {
	s := strconv.FormatUint(uint64(h), 16)
	for len(s) < 16 {
		s = "0" + s
	}
	return s
}

// Parse reads a hash back from String's output. It returns 0 for
// malformed input — indistinguishable from the legitimate all-zero
// fingerprint (an empty token sequence). Callers that round-trip
// fingerprints through checkpoints or shard state should use
// ParseStrict instead.
func Parse(s string) Hash {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return Hash(v)
}

// ParseStrict reads a hash back from String's output and reports
// whether the input was well-formed: exactly 16 hex digits, the fixed
// width String always emits. Unlike Parse it distinguishes malformed
// input (ok == false) from the legitimate all-zero hash
// ("0000000000000000", ok == true).
func ParseStrict(s string) (Hash, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return Hash(v), true
}

// Band extracts the i-th of nBands contiguous bit-bands of h (i in
// [0, nBands)). Bands split the 64 bits as evenly as possible, low bits
// first; when nBands does not divide 64 the last band takes the
// remainder. Two fingerprints that agree on any band are locality-
// sensitive candidates: a pair within k flipped bits fails to share a
// band only when the flips cover every band, which is vanishingly rare
// for k well below nBands·(64/nBands).
func Band(h Hash, i, nBands int) uint64 {
	if nBands <= 0 || i < 0 || i >= nBands {
		panic("simhash: band out of range")
	}
	width := 64 / nBands
	lo := i * width
	if i == nBands-1 {
		width = 64 - lo
	}
	if width >= 64 {
		return uint64(h)
	}
	return (uint64(h) >> uint(lo)) & (1<<uint(width) - 1)
}

// SharesBand reports whether a and b agree on at least one of nBands
// bit-bands — the banded-LSH candidate test. It runs on the XOR of the
// fingerprints, so it costs a handful of shifts regardless of nBands.
func SharesBand(a, b Hash, nBands int) bool {
	if nBands <= 0 {
		panic("simhash: nBands must be positive")
	}
	x := uint64(a ^ b)
	width := 64 / nBands
	for i := 0; i < nBands; i++ {
		lo := i * width
		w := width
		if i == nBands-1 {
			w = 64 - lo
		}
		var band uint64
		if w >= 64 {
			band = x
		} else {
			band = (x >> uint(lo)) & (1<<uint(w) - 1)
		}
		if band == 0 {
			return true
		}
	}
	return false
}

// BandIndex buckets fingerprints by band value so candidate sets can be
// enumerated without the O(n²) all-pairs scan: items sharing any band
// land in a common bucket. IDs are caller-assigned, non-negative
// (typically record indices). A BandIndex is not safe for concurrent use
// while Add mutates the buckets; lookups only read them, so goroutines
// that each bring their own Marks may look up one index at once.
type BandIndex struct {
	nBands  int
	buckets []map[uint64][]int
	maxID   int // largest id added, -1 while empty
}

// NewBandIndex returns an empty index over nBands bit-bands.
func NewBandIndex(nBands int) *BandIndex {
	if nBands <= 0 || nBands > 64 {
		panic("simhash: nBands out of range")
	}
	ix := &BandIndex{
		nBands:  nBands,
		buckets: make([]map[uint64][]int, nBands),
		maxID:   -1,
	}
	for i := range ix.buckets {
		ix.buckets[i] = make(map[uint64][]int)
	}
	return ix
}

// Add inserts a fingerprint under the given id, which must be
// non-negative: lookups dedupe ids in a bit set.
func (ix *BandIndex) Add(id int, h Hash) {
	if id < 0 {
		panic(fmt.Sprintf("simhash: negative id %d", id))
	}
	ix.maxID = max(ix.maxID, id)
	for b := 0; b < ix.nBands; b++ {
		key := Band(h, b, ix.nBands)
		ix.buckets[b][key] = append(ix.buckets[b][key], id)
	}
}

// Marks is the scratch bit set a lookup dedupes candidate ids in, one
// bit per id. Every bit is clear between lookups, because a lookup
// clears each word as it reads it out. The zero value is ready to use;
// it grows to the largest id added to the index it is used with. Marks
// belong to the caller, not the index, so lookups never write the
// index: each goroutine that looks up a shared index brings its own.
type Marks struct {
	words []uint64
}

// AppendCandidates appends the deduplicated ids sharing at least one
// band with h to dst, in ascending id order, and returns the extended
// slice. An item previously Added under h is its own candidate. Each
// matching bucket's ids are set in marks; the words between the lowest
// and highest id set are then read out in ascending order and cleared,
// so a lookup sorts nothing and, once dst and marks have grown,
// allocates nothing.
func (ix *BandIndex) AppendCandidates(dst []int, marks *Marks, h Hash) []int {
	if need := ix.maxID>>6 + 1; len(marks.words) < need {
		marks.words = append(marks.words, make([]uint64, need-len(marks.words))...)
	}
	words := marks.words
	lo, hi := len(words), -1
	for b := 0; b < ix.nBands; b++ {
		for _, id := range ix.buckets[b][Band(h, b, ix.nBands)] {
			w := id >> 6
			words[w] |= 1 << uint(id&63)
			lo, hi = min(lo, w), max(hi, w)
		}
	}
	for w := lo; w <= hi; w++ {
		x := words[w]
		if x == 0 {
			continue
		}
		words[w] = 0
		for ; x != 0; x &= x - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(x))
		}
	}
	return dst
}

// ForEachGroup calls fn once per bucket holding at least two ids, with
// the bucket's id list in insertion order. Every pair of fingerprints
// that share a band appears together in at least one group, so a caller
// union-finding over groups recovers exactly the banded-LSH candidate
// graph's connected components. Groups come band by band, and within a
// band by ascending band value, so the order depends only on what was
// added: a caller whose work depends on group order (the blocked union
// phase's already-connected short-circuit) gets the same work on every
// run. The slice is the index's own storage: fn must not mutate it, but
// may keep it, since a later Add leaves it unchanged.
func (ix *BandIndex) ForEachGroup(fn func(ids []int)) {
	var keys []uint64
	for _, bkt := range ix.buckets {
		keys = keys[:0]
		for key, ids := range bkt {
			if len(ids) >= 2 {
				keys = append(keys, key)
			}
		}
		slices.Sort(keys)
		for _, key := range keys {
			fn(bkt[key])
		}
	}
}

// Index is a simple set of fingerprints supporting nearest-neighbour
// queries by linear scan — adequate for the study's page counts.
type Index struct {
	hashes []Hash
}

// Add inserts a fingerprint.
func (ix *Index) Add(h Hash) { ix.hashes = append(ix.hashes, h) }

// Len returns the number of stored fingerprints.
func (ix *Index) Len() int { return len(ix.hashes) }

// AnyNear reports whether any stored fingerprint is within k bits of h.
func (ix *Index) AnyNear(h Hash, k int) bool {
	for _, x := range ix.hashes {
		if Near(x, h, k) {
			return true
		}
	}
	return false
}

// Nearest returns the closest stored fingerprint and its distance, or
// (0, 65, false) when empty.
func (ix *Index) Nearest(h Hash) (Hash, int, bool) {
	if len(ix.hashes) == 0 {
		return 0, 65, false
	}
	best, bestD := ix.hashes[0], Distance(ix.hashes[0], h)
	for _, x := range ix.hashes[1:] {
		if d := Distance(x, h); d < bestD {
			best, bestD = x, d
		}
	}
	return best, bestD, true
}
