// Package urlx provides the URL analysis primitives the mining pipeline
// relies on: effective second-level domain (eSLD) extraction backed by a
// compact public-suffix list, landing-URL path tokenization (directory
// components, page name, and query-string parameter names — the paper's
// §5.1.1 feature), and Jaccard distance between token sets.
package urlx

import (
	"cmp"
	"net/url"
	"sort"
	"strings"
)

// publicSuffixes is a compact public-suffix set sufficient for the domains
// that appear in this repository's synthetic web and in the paper's
// examples. Multi-label suffixes are listed explicitly; anything else is
// treated as a single-label TLD.
var publicSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true,
	"com.au": true, "net.au": true, "org.au": true,
	"co.jp": true, "ne.jp": true, "or.jp": true,
	"com.br": true, "com.cn": true, "com.tr": true, "com.mx": true,
	"co.in": true, "co.kr": true, "co.za": true, "com.sg": true,
	// Three-label suffixes, to exercise the longest-match walk.
	"co.im": true, "ltd.co.im": true, "plc.co.im": true,
}

// maxSuffixLabels is the label count of the longest entry in
// publicSuffixes; ESLD never probes deeper than this.
const maxSuffixLabels = 3

// ESLD returns the effective second-level domain of host: the registrable
// domain one label below the public suffix. IP addresses and single-label
// hosts are returned unchanged. Hostnames are lowercased and any trailing
// dot is removed.
func ESLD(host string) string {
	host = strings.ToLower(strings.TrimSuffix(host, "."))
	if host == "" {
		return ""
	}
	// IPv6 literal or IPv4: return as-is.
	if strings.Contains(host, ":") || isIPv4(host) {
		return host
	}
	labels := strings.Split(host, ".")
	if len(labels) <= 1 {
		return host
	}
	// Longest listed suffix wins: probe from maxSuffixLabels labels down
	// to 2, so "x.plc.co.im" resolves against "plc.co.im" rather than
	// stopping at "co.im". (The old code only ever consulted the last
	// two labels, so every ≥3-label suffix in the table was dead weight
	// and hosts under them collapsed to the wrong registrable domain.)
	// A host that *is* a suffix (k == len(labels)) has no registrable
	// domain; it falls through to the last-2 join, unchanged behavior.
	for k := maxSuffixLabels; k >= 2; k-- {
		if len(labels) <= k {
			continue
		}
		if publicSuffixes[strings.Join(labels[len(labels)-k:], ".")] {
			return strings.Join(labels[len(labels)-k-1:], ".")
		}
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

func isIPv4(host string) bool {
	parts := strings.Split(host, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if p == "" || len(p) > 3 {
			return false
		}
		for _, c := range p {
			if c < '0' || c > '9' {
				return false
			}
		}
	}
	return true
}

// HostOf extracts the hostname of a raw URL, or "" if it cannot be parsed.
func HostOf(raw string) string {
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return u.Hostname()
}

// ESLDOf returns the eSLD of a raw URL's host, or "" if unparseable.
func ESLDOf(raw string) string { return ESLD(HostOf(raw)) }

// PathTokens tokenizes a landing-page URL the way the paper's URL-path
// distance requires (§5.1.1): the domain name and query-string *values*
// are excluded, while directory components, the page name, and query
// parameter *names* are retained. Tokens are lowercased and deduplicated;
// the returned slice is sorted for deterministic comparison.
func PathTokens(raw string) []string {
	u, err := url.Parse(raw)
	if err != nil {
		return nil
	}
	set := make(map[string]bool)
	for _, seg := range strings.Split(u.EscapedPath(), "/") {
		for _, tok := range splitSegment(seg) {
			set[tok] = true
		}
	}
	if u.RawQuery != "" {
		// Parse only parameter names; values are deliberately dropped.
		for _, pair := range strings.Split(u.RawQuery, "&") {
			name := pair
			if i := strings.IndexByte(pair, '='); i >= 0 {
				name = pair[:i]
			}
			if name = strings.ToLower(strings.TrimSpace(name)); name != "" {
				set["?"+name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for tok := range set {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// splitSegment splits one path segment on non-alphanumeric separators so
// that "landing-page_v2.html" tokenizes to {landing, page, v2, html}.
func splitSegment(seg string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, strings.ToLower(b.String()))
			b.Reset()
		}
	}
	for _, c := range seg {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteRune(c)
		default:
			flush()
		}
	}
	flush()
	return out
}

// Jaccard returns the Jaccard distance (1 − |A∩B| / |A∪B|) between two
// token sets. Two empty sets are at distance 0; an empty set versus a
// non-empty one is at distance 1.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	set := make(map[string]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	seen := make(map[string]bool, len(b))
	for _, t := range b {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	return 1 - float64(inter)/float64(union)
}

// JaccardSorted is Jaccard over two ascending, deduplicated slices
// (PathTokens output, or token ids interned from it), computed by a
// linear merge with no allocations. It returns exactly the same value as
// Jaccard on such inputs: the merge counts the intersection and union
// sizes, which do not depend on what the elements are. The clustering
// hot path calls it once per candidate pair, on int32 ids.
func JaccardSorted[T cmp.Ordered](a, b []T) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	inter, union := 0, 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		union++
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union += len(a) - i + len(b) - j
	return 1 - float64(inter)/float64(union)
}

// PathDistance is Jaccard distance over PathTokens of two raw URLs.
func PathDistance(rawA, rawB string) float64 {
	return Jaccard(PathTokens(rawA), PathTokens(rawB))
}

// SameOrigin reports whether two raw URLs share scheme and host
// (ignoring port), the approximation of origin the ad/non-ad heuristic
// uses when deciding whether a notification leads back to its source.
func SameOrigin(rawA, rawB string) bool {
	a, errA := url.Parse(rawA)
	b, errB := url.Parse(rawB)
	if errA != nil || errB != nil {
		return false
	}
	return a.Scheme == b.Scheme && a.Hostname() == b.Hostname()
}

// SameESLD reports whether two raw URLs share an effective second-level
// domain.
func SameESLD(rawA, rawB string) bool {
	a, b := ESLDOf(rawA), ESLDOf(rawB)
	return a != "" && a == b
}
