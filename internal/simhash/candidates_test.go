package simhash

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestParseStrict(t *testing.T) {
	cases := []struct {
		in   string
		want Hash
		ok   bool
	}{
		{"0000000000000000", 0, true},
		{"00000000deadbeef", 0xdeadbeef, true},
		{"ffffffffffffffff", ^Hash(0), true},
		{"", 0, false},
		{"0", 0, false},        // Parse accepts this; strict rejects short input
		{"deadbeef", 0, false}, // valid hex, wrong width — a truncated checkpoint field
		{"00000000deadbeefX", 0, false},
		{"000000000000000g", 0, false},
		{"0x00000000000000", 0, false},
		{"-000000000000001", 0, false},
		{" 000000000000000", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseStrict(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseStrict(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
	// Round trip: every String output parses strictly.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		h := Hash(rng.Uint64())
		got, ok := ParseStrict(h.String())
		if !ok || got != h {
			t.Fatalf("round trip failed for %v", h)
		}
	}
}

// referenceCandidates recomputes a BandIndex query by brute force over
// the added set.
func referenceCandidates(added map[int]Hash, h Hash, nBands int) []int {
	var out []int
	for id, x := range added {
		if SharesBand(x, h, nBands) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// candidates is a one-off lookup with fresh marks.
func candidates(ix *BandIndex, h Hash) []int {
	return ix.AppendCandidates(nil, new(Marks), h)
}

// marksClear reports whether a lookup left every bit of marks clear.
func marksClear(marks *Marks) bool {
	for _, w := range marks.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestAppendCandidatesMatchesReference cross-checks the bit-set lookup
// against the brute-force definition on random fingerprints: ids added
// out of ascending order, sparse large ids, repeated hashes, repeated
// queries, and one dst buffer and one Marks reused across every query
// of every index (the marks grow to the largest id and must come back
// clear).
func TestAppendCandidatesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var marks Marks
	buf := make([]int, 0, 64)
	for _, c := range []struct {
		name   string
		nBands int
		ids    func(k int) int // the k-th id added
	}{
		{"ascending/1", 1, func(k int) int { return k }},
		{"ascending/4", 4, func(k int) int { return k }},
		{"ascending/8", 8, func(k int) int { return k }},
		{"ascending/13", 13, func(k int) int { return k }},
		// A fixed permutation of 0..299: every later id lands below some
		// earlier one, in buckets that are not in ascending order.
		{"shuffled/8", 8, func(k int) int { return (k * 97) % 300 }},
		{"descending/4", 4, func(k int) int { return 299 - k }},
		// Sparse large ids, several words apart and out of order.
		{"sparse/8", 8, func(k int) int { return (k*7919)%300*3331 + 1<<16 }},
	} {
		ix := NewBandIndex(c.nBands)
		added := make(map[int]Hash)
		var hashes []Hash
		for k := 0; k < 300; k++ {
			var h Hash
			switch {
			case k%7 == 6:
				// Repeated: the exact hash of an earlier id.
				h = hashes[rng.Intn(k)]
			case k%3 == 0 && k > 0:
				// Correlated with an earlier hash: flip a few bits so
				// bands genuinely collide.
				h = hashes[rng.Intn(k)] ^ Hash(1)<<uint(rng.Intn(64))
			default:
				h = Hash(rng.Uint64())
			}
			hashes = append(hashes, h)
			id := c.ids(k)
			ix.Add(id, h)
			added[id] = h
		}
		for q := 0; q < 60; q++ {
			h := hashes[rng.Intn(len(hashes))]
			if q%3 == 0 {
				h = Hash(rng.Uint64())
			}
			want := referenceCandidates(added, h, c.nBands)
			if got := candidates(ix, h); !equalInts(got, want) {
				t.Fatalf("%s: fresh lookup of %v = %v, want %v", c.name, h, got, want)
			}
			// AppendCandidates must leave the prefix intact, append the
			// same ascending set, and leave the reused marks clear.
			buf = append(buf[:0], -7)
			buf = ix.AppendCandidates(buf, &marks, h)
			if buf[0] != -7 || !equalInts(buf[1:], want) {
				t.Fatalf("%s: AppendCandidates corrupted buffer: %v, want prefix -7 then %v", c.name, buf, want)
			}
			if !marksClear(&marks) {
				t.Fatalf("%s: lookup of %v left marks set", c.name, h)
			}
		}
	}
}

// TestConcurrentLookups runs lookups on one index from several
// goroutines at once, each with its own Marks, and checks every result.
// Lookups must only read the index: marks kept inside it would race
// (go test -race fails) and corrupt the dedup.
func TestConcurrentLookups(t *testing.T) {
	const nBands, n = 8, 2000
	rng := rand.New(rand.NewSource(29))
	ix := NewBandIndex(nBands)
	hashes := make([]Hash, n)
	for id := range hashes {
		if id%2 == 1 {
			hashes[id] = hashes[rng.Intn(id)] ^ Hash(1)<<uint(rng.Intn(64))
		} else {
			hashes[id] = Hash(rng.Uint64())
		}
		ix.Add(id, hashes[id])
	}
	want := make([][]int, 200)
	for q := range want {
		want[q] = candidates(ix, hashes[q*7%n])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var marks Marks
			var buf []int
			for rep := 0; rep < 5; rep++ {
				for q := range want {
					q = (q + 53*g) % len(want)
					buf = ix.AppendCandidates(buf[:0], &marks, hashes[q*7%n])
					if !equalInts(buf, want[q]) {
						errs <- fmt.Sprintf("goroutine %d: query %d = %v, want %v", g, q, buf, want[q])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBandIndexAddNegativeID asserts Add rejects a negative id, which no
// bit set can hold, and names it.
func TestBandIndexAddNegativeID(t *testing.T) {
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "-3") {
			t.Fatalf("Add(-3) panicked with %v, want a message naming -3", r)
		}
	}()
	NewBandIndex(8).Add(-3, 0)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestForEachGroup asserts the group enumeration comes in its fixed
// order and recovers exactly the banded candidate graph: two ids appear
// together in some group iff they share a band.
func TestForEachGroup(t *testing.T) {
	const nBands = 8
	rng := rand.New(rand.NewSource(3))
	ix := NewBandIndex(nBands)
	hashes := make([]Hash, 120)
	for id := range hashes {
		var h Hash
		if id%4 == 0 && id > 0 {
			h = hashes[rng.Intn(id)] ^ Hash(1)<<uint(rng.Intn(64))
		} else {
			h = Hash(rng.Uint64())
		}
		hashes[id] = h
		ix.Add(id, h)
	}
	// Order: band by band, band values ascending, each group in
	// insertion order — rebuilt here from the hashes.
	var want [][]int
	for b := 0; b < nBands; b++ {
		byKey := map[uint64][]int{}
		var keys []uint64
		for id, h := range hashes {
			key := Band(h, b, nBands)
			if byKey[key] == nil {
				keys = append(keys, key)
			}
			byKey[key] = append(byKey[key], id)
		}
		sort.Slice(keys, func(x, y int) bool { return keys[x] < keys[y] })
		for _, key := range keys {
			if len(byKey[key]) >= 2 {
				want = append(want, byKey[key])
			}
		}
	}
	var got [][]int
	ix.ForEachGroup(func(ids []int) { got = append(got, ids) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups in order %v, want %v", got, want)
	}
	together := make(map[[2]int]bool)
	ix.ForEachGroup(func(ids []int) {
		if len(ids) < 2 {
			t.Fatalf("group with %d id(s) emitted", len(ids))
		}
		for a := 0; a < len(ids); a++ {
			for b := 0; b < len(ids); b++ {
				if a != b {
					i, j := ids[a], ids[b]
					if i > j {
						i, j = j, i
					}
					together[[2]int{i, j}] = true
				}
			}
		}
	})
	for i := 0; i < len(hashes); i++ {
		for j := i + 1; j < len(hashes); j++ {
			want := SharesBand(hashes[i], hashes[j], nBands)
			if together[[2]int{i, j}] != want {
				t.Fatalf("pair (%d,%d): grouped=%v, SharesBand=%v", i, j, together[[2]int{i, j}], want)
			}
		}
	}
}

// BenchmarkCandidatesLargeBucket is the regression benchmark for the
// candidate lookup on huge overlapping buckets. Every id lands in 7 of
// the 8 buckets queried, so a lookup reads 7 ids per candidate. Setting
// and reading back a bit per id costs 1.8 / 14.2 / 66 µs per query at
// 100 / 1,000 / 5,000 ids, where sorting and compacting the appended
// buckets cost 12.3 / 195 / 1,295 µs (-benchtime 2000x, one run each on
// a 2 vCPU Xeon), and a query into a reused buffer and marks allocates
// nothing.
func BenchmarkCandidatesLargeBucket(b *testing.B) {
	for _, size := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("bucket=%d", size), func(b *testing.B) {
			ix := NewBandIndex(8)
			base := Hash(0x5a5a5a5a5a5a5a5a)
			for id := 0; id < size; id++ {
				// One flipped bit: every hash shares 7 of 8 bands with
				// base, so queries see huge overlapping buckets.
				ix.Add(id, base^Hash(1)<<uint(id%64))
			}
			buf := make([]int, 0, size)
			var marks Marks
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ix.AppendCandidates(buf[:0], &marks, base)
			}
			if len(buf) != size {
				b.Fatalf("query returned %d candidates, want %d", len(buf), size)
			}
		})
	}
}
