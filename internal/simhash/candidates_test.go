package simhash

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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

// TestAppendCandidatesMatchesReference cross-checks the sort-and-compact
// lookup against the brute-force definition on random fingerprints,
// including repeated queries and buffer reuse.
func TestAppendCandidatesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, nBands := range []int{1, 4, 8, 13} {
		ix := NewBandIndex(nBands)
		added := make(map[int]Hash)
		for id := 0; id < 300; id++ {
			var h Hash
			if id%3 == 0 && id > 0 {
				// Correlated with an earlier hash: flip a few bits so
				// bands genuinely collide.
				h = added[rng.Intn(id)] ^ Hash(1)<<uint(rng.Intn(64))
			} else {
				h = Hash(rng.Uint64())
			}
			ix.Add(id, h)
			added[id] = h
		}
		buf := make([]int, 0, 64)
		for q := 0; q < 50; q++ {
			h := added[rng.Intn(300)]
			if q%2 == 0 {
				h = Hash(rng.Uint64())
			}
			want := referenceCandidates(added, h, nBands)
			got := ix.Candidates(h)
			if !equalInts(got, want) {
				t.Fatalf("nBands=%d: Candidates(%v) = %v, want %v", nBands, h, got, want)
			}
			// AppendCandidates must leave the prefix intact and append
			// the same sorted set.
			buf = buf[:0]
			buf = append(buf, -7)
			buf = ix.AppendCandidates(buf, h)
			if buf[0] != -7 || !equalInts(buf[1:], want) {
				t.Fatalf("nBands=%d: AppendCandidates corrupted buffer: %v, want prefix -7 then %v", nBands, buf, want)
			}
		}
	}
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
// Candidates hot path: thousands of ids landing in shared buckets once
// paid a fresh map allocation per call plus an O(k²) insertion sort of
// the result. The lookup now sorts and compacts in the caller's buffer,
// so a query into a reused buffer allocates nothing once the buffer has
// grown.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = ix.AppendCandidates(buf[:0], base)
			}
			if len(buf) != size {
				b.Fatalf("query returned %d candidates, want %d", len(buf), size)
			}
		})
	}
}
