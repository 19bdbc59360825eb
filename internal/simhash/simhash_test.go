package simhash

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func toks(s string) []string { return strings.Fields(s) }

func TestIdenticalContentSameHash(t *testing.T) {
	a := Of(toks("your computer has been blocked call now"))
	b := Of(toks("your computer has been blocked call now"))
	if a != b {
		t.Fatalf("identical content hashed differently: %v vs %v", a, b)
	}
}

func TestSimilarContentNearHash(t *testing.T) {
	base := "congratulations lucky winner complete this short survey to receive your exclusive reward enter your shipping details and card for verification today"
	variant := base + " bonus777.icu" // same kit, different domain appended
	a, b := Of(toks(base)), Of(toks(variant))
	if d := Distance(a, b); d > 12 {
		t.Errorf("near-duplicate pages %d bits apart, want <= 12", d)
	}
	unrelated := Of(toks("hourly forecast radar temperature precipitation wind humidity alerts for your local area today and tomorrow morning"))
	if d := Distance(a, unrelated); d < 16 {
		t.Errorf("unrelated pages only %d bits apart, want >= 16", d)
	}
}

func TestEmpty(t *testing.T) {
	if Of(nil) != 0 {
		t.Error("empty token stream must hash to 0")
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		ha, hb := Hash(a), Hash(b)
		d := Distance(ha, hb)
		if d < 0 || d > 64 {
			return false
		}
		if Distance(ha, ha) != 0 {
			return false
		}
		return Distance(ha, hb) == Distance(hb, ha)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNear(t *testing.T) {
	if !Near(0b1011, 0b1010, 1) {
		t.Error("1-bit difference not near with k=1")
	}
	if Near(0b1011, 0b0000, 2) {
		t.Error("3-bit difference near with k=2")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	h := Of(toks("some page text"))
	if got := Parse(h.String()); got != h {
		t.Errorf("round trip: %v -> %q -> %v", h, h.String(), got)
	}
	if len(h.String()) != 16 {
		t.Errorf("String length %d", len(h.String()))
	}
	if Parse("zz") != 0 {
		t.Error("malformed parse did not return 0")
	}
}

func TestIndex(t *testing.T) {
	var ix Index
	if _, _, ok := ix.Nearest(5); ok {
		t.Error("empty index returned a neighbour")
	}
	if ix.AnyNear(5, 64) {
		t.Error("empty index claims a near match")
	}
	scam := Of(toks("call the toll free number your computer is blocked"))
	ix.Add(scam)
	ix.Add(Of(toks("daily horoscope love career money lucky numbers")))
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	variantTokens := toks("call the toll free number your computer is blocked error 0x80072ee7")
	v := Of(variantTokens)
	nearest, d, ok := ix.Nearest(v)
	if !ok || nearest != scam {
		t.Errorf("Nearest = %v, %d, %v; want the scam hash", nearest, d, ok)
	}
	if !ix.AnyNear(v, 16) {
		t.Error("variant not near the stored scam page")
	}
}

func TestBandPartitionsAllBits(t *testing.T) {
	for _, nBands := range []int{1, 2, 4, 5, 8, 16, 64} {
		h := Hash(0xdeadbeefcafef00d)
		var rebuilt uint64
		width := 64 / nBands
		for i := 0; i < nBands; i++ {
			rebuilt |= Band(h, i, nBands) << uint(i*width)
		}
		if rebuilt != uint64(h) {
			t.Errorf("nBands=%d: bands rebuild %x, want %x", nBands, rebuilt, uint64(h))
		}
	}
}

func TestSharesBand(t *testing.T) {
	a := Hash(0x0123456789abcdef)
	if !SharesBand(a, a, 8) {
		t.Error("identical hashes share no band")
	}
	// Flip exactly one bit per 8-bit band: no band survives.
	b := a ^ 0x0101010101010101
	if SharesBand(a, b, 8) {
		t.Error("one flip in every band still shares a band")
	}
	// Flip bits only in the low band: the other 7 bands survive.
	c := a ^ 0x00000000000000ff
	if !SharesBand(a, c, 8) {
		t.Error("flips confined to one band should leave candidates")
	}
	// SharesBand must agree with per-band equality for random pairs.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		x, y := Hash(rng.Uint64()), Hash(rng.Uint64())
		for _, nBands := range []int{1, 3, 8, 16} {
			want := false
			for i := 0; i < nBands; i++ {
				if Band(x, i, nBands) == Band(y, i, nBands) {
					want = true
					break
				}
			}
			if got := SharesBand(x, y, nBands); got != want {
				t.Fatalf("SharesBand(%x,%x,%d) = %v, want %v", x, y, nBands, got, want)
			}
		}
	}
}

func TestBandIndexCandidates(t *testing.T) {
	ix := NewBandIndex(8)
	base := Hash(0xfedcba9876543210)
	near := base ^ 0x3 // two flipped bits: shares 7 bands
	far := ^base       // all bits flipped: shares none
	ix.Add(0, base)
	ix.Add(1, near)
	ix.Add(2, far)
	got := candidates(ix, base)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Candidates(base) = %v, want [0 1]", got)
	}
	if got := candidates(ix, far); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Candidates(far) = %v, want [2]", got)
	}
	// Candidates must be exactly the SharesBand-positive set.
	rng := rand.New(rand.NewSource(7))
	hashes := make([]Hash, 50)
	ix2 := NewBandIndex(4)
	for i := range hashes {
		hashes[i] = Hash(rng.Uint64())
		ix2.Add(i, hashes[i])
	}
	for i, h := range hashes {
		want := []int{}
		for j, g := range hashes {
			if SharesBand(h, g, 4) {
				want = append(want, j)
			}
		}
		got := candidates(ix2, h)
		if len(got) != len(want) {
			t.Fatalf("item %d: candidates %v, want %v", i, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("item %d: candidates %v, want %v", i, got, want)
			}
		}
	}
}
