package urlx

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestESLD(t *testing.T) {
	cases := []struct{ host, want string }{
		{"www.example.com", "example.com"},
		{"example.com", "example.com"},
		{"a.b.c.example.com", "example.com"},
		{"news.bbc.co.uk", "bbc.co.uk"},
		{"bbc.co.uk", "bbc.co.uk"},
		{"localhost", "localhost"},
		{"EXAMPLE.COM.", "example.com"},
		{"192.168.1.10", "192.168.1.10"},
		{"shop.com.au", "shop.com.au"},
		{"www.shop.com.au", "shop.com.au"},
		{"", ""},
		{"aurolog.ru", "aurolog.ru"},
		{"cdn.aurolog.ru", "aurolog.ru"},
	}
	for _, c := range cases {
		if got := ESLD(c.host); got != c.want {
			t.Errorf("ESLD(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

// TestESLDLongestMatch is the regression test for the suffix-table
// walk: the old code consulted only 2-label suffixes, so any 3-label
// public suffix in the table was dead weight and hosts under it
// collapsed to the wrong registrable domain ("shop.plc.co.im" →
// "plc.co.im", merging every registrant under that suffix into one
// eSLD — which in the mining pipeline conflates unrelated senders).
func TestESLDLongestMatch(t *testing.T) {
	cases := []struct{ host, want string }{
		// Longest match must win over the 2-label "co.im".
		{"shop.plc.co.im", "shop.plc.co.im"},
		{"www.shop.plc.co.im", "shop.plc.co.im"},
		{"a.b.shop.ltd.co.im", "shop.ltd.co.im"},
		// Plain 2-label suffix behaviour unchanged.
		{"foo.co.im", "foo.co.im"},
		{"www.foo.co.im", "foo.co.im"},
		// A host that IS a public suffix has no registrable domain;
		// the last-2 join fallback is the documented behaviour.
		{"co.im", "co.im"},
		{"ltd.co.im", "ltd.co.im"},
		{"co.uk", "co.uk"},
		// Unlisted 3-label tails never over-match.
		{"a.b.example.com", "example.com"},
	}
	for _, c := range cases {
		if got := ESLD(c.host); got != c.want {
			t.Errorf("ESLD(%q) = %q, want %q", c.host, got, c.want)
		}
	}
	// The table invariant the walk depends on.
	for s := range publicSuffixes {
		if n := len(strings.Split(s, ".")); n > maxSuffixLabels {
			t.Errorf("suffix %q has %d labels, above maxSuffixLabels=%d — deepen the constant", s, n, maxSuffixLabels)
		}
	}
}

func TestHostAndESLDOf(t *testing.T) {
	if got := HostOf("https://www.example.com:8443/a/b?x=1"); got != "www.example.com" {
		t.Errorf("HostOf = %q", got)
	}
	if got := ESLDOf("https://push.ads.example.com/p"); got != "example.com" {
		t.Errorf("ESLDOf = %q", got)
	}
	if got := HostOf("://bad"); got != "" {
		t.Errorf("HostOf(bad) = %q, want empty", got)
	}
}

func TestPathTokens(t *testing.T) {
	got := PathTokens("https://ads.example.com/click/landing-page_v2.html?cid=42&src=push")
	want := []string{"?cid", "?src", "click", "html", "landing", "page", "v2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PathTokens = %v, want %v", got, want)
	}
}

func TestPathTokensExcludesDomainAndValues(t *testing.T) {
	toks := PathTokens("https://evil.example.com/offer?user=SECRETVALUE")
	for _, tok := range toks {
		if tok == "evil" || tok == "example" || tok == "com" {
			t.Errorf("domain token %q leaked into path tokens", tok)
		}
		if tok == "secretvalue" {
			t.Errorf("query value leaked into path tokens")
		}
	}
}

func TestPathTokensEmptyAndRoot(t *testing.T) {
	if toks := PathTokens("https://example.com/"); len(toks) != 0 {
		t.Errorf("root path tokens = %v, want none", toks)
	}
	if toks := PathTokens("://bad"); toks != nil {
		t.Errorf("bad URL tokens = %v, want nil", toks)
	}
}

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 1},
		{[]string{"a", "b"}, []string{"a", "b"}, 0},
		{[]string{"a", "b"}, []string{"b", "c"}, 1 - 1.0/3.0},
		{[]string{"a"}, []string{"b"}, 1},
		{[]string{"a", "a", "b"}, []string{"a", "b", "b"}, 0}, // duplicates ignored
	}
	for _, c := range cases {
		if got := Jaccard(c.a, c.b); !almost(got, c.want) {
			t.Errorf("Jaccard(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestJaccardProperties(t *testing.T) {
	gen := func(r *rand.Rand) []string {
		n := r.Intn(8)
		out := make([]string, n)
		for i := range out {
			out[i] = string(rune('a' + r.Intn(6)))
		}
		return out
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := gen(r), gen(r)
		dab, dba := Jaccard(a, b), Jaccard(b, a)
		if !almost(dab, dba) {
			t.Fatalf("not symmetric: J(%v,%v)=%v J(%v,%v)=%v", a, b, dab, b, a, dba)
		}
		if dab < 0 || dab > 1 {
			t.Fatalf("out of range: J(%v,%v)=%v", a, b, dab)
		}
		if !almost(Jaccard(a, a), 0) {
			t.Fatalf("J(a,a) != 0 for %v", a)
		}
	}
}

func TestJaccardTriangleInequality(t *testing.T) {
	// Jaccard distance is a true metric; spot-check the triangle
	// inequality with random token sets.
	f := func(xa, xb, xc uint8) bool {
		mk := func(x uint8) []string {
			var s []string
			for i := 0; i < 8; i++ {
				if x&(1<<i) != 0 {
					s = append(s, string(rune('a'+i)))
				}
			}
			return s
		}
		a, b, c := mk(xa), mk(xb), mk(xc)
		return Jaccard(a, c) <= Jaccard(a, b)+Jaccard(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPathDistance(t *testing.T) {
	same := PathDistance(
		"https://a.com/lp/win-prize.html?cid=1",
		"https://b.net/lp/win-prize.html?cid=9",
	)
	if !almost(same, 0) {
		t.Errorf("identical paths on different domains: distance %v, want 0", same)
	}
	diff := PathDistance("https://a.com/news/today", "https://a.com/lp/win-prize.html?cid=1")
	if diff <= same {
		t.Errorf("unrelated paths should be farther: %v <= %v", diff, same)
	}
}

func TestSameOrigin(t *testing.T) {
	if !SameOrigin("https://a.com/x", "https://a.com/y?z=1") {
		t.Error("same host+scheme should be same origin")
	}
	if SameOrigin("https://a.com/x", "http://a.com/x") {
		t.Error("different scheme is a different origin")
	}
	if SameOrigin("https://a.com/x", "https://b.com/x") {
		t.Error("different host is a different origin")
	}
	if SameOrigin("://bad", "https://a.com") {
		t.Error("unparseable URL must not match")
	}
}

func TestSameESLD(t *testing.T) {
	if !SameESLD("https://www.a.com/x", "https://push.a.com/y") {
		t.Error("subdomains of one eSLD should match")
	}
	if SameESLD("https://a.com/x", "https://b.com/x") {
		t.Error("different eSLDs must not match")
	}
	if SameESLD("://bad", "://worse") {
		t.Error("unparseable URLs must not match")
	}
}

func TestJaccardSortedMatchesJaccard(t *testing.T) {
	cases := [][2][]string{
		{{}, {}},
		{{"a"}, {}},
		{{}, {"a"}},
		{{"a", "b", "c"}, {"a", "b", "c"}},
		{{"a", "b", "c"}, {"b", "d"}},
		{{"a", "z"}, {"b", "c", "d"}},
		{{"?id", "buy", "now"}, {"?id", "landing", "now"}},
	}
	for _, c := range cases {
		want := Jaccard(c[0], c[1])
		got := JaccardSorted(c[0], c[1])
		if got != want {
			t.Errorf("JaccardSorted(%v, %v) = %v, want %v", c[0], c[1], got, want)
		}
	}
	// PathTokens output is sorted+deduplicated; the two must agree on it.
	urls := []string{
		"https://a.example/landing/page?id=1&src=x",
		"https://b.example/other/page?src=y",
		"https://c.example/",
		"https://d.example/promo/win-big/now?claim=1",
	}
	// Interned ids: any id assignment, each side sorted ascending, gives
	// the same value as the strings. Ids are handed out in reverse
	// first-seen order here, so id order disagrees with string order.
	dict := map[string]int32{}
	intern := func(toks []string) []int32 {
		ids := make([]int32, len(toks))
		for k, tok := range toks {
			id, ok := dict[tok]
			if !ok {
				id = int32(-len(dict))
				dict[tok] = id
			}
			ids[k] = id
		}
		sort.Slice(ids, func(x, y int) bool { return ids[x] < ids[y] })
		return ids
	}
	for _, u := range urls {
		for _, v := range urls {
			a, b := PathTokens(u), PathTokens(v)
			want := Jaccard(a, b)
			if got := JaccardSorted(a, b); got != want {
				t.Errorf("PathTokens mismatch for %q vs %q: %v != %v", u, v, got, want)
			}
			if got := JaccardSorted(intern(a), intern(b)); got != want {
				t.Errorf("interned ids mismatch for %q vs %q: %v != %v", u, v, got, want)
			}
		}
	}
}
