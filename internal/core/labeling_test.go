package core

import (
	"testing"
	"time"

	"pushadminer/internal/blocklist"
)

// TestBlocklistLagMonotone is §6.3.2's detection lag seen from the
// labeling stage. Blocklists only ever add detections, so over a corpus
// whose landing URLs are all malicious: a later scan instant never
// un-flags a URL (per service), adding a scan never removes a flag, and
// for a fixed clustering the malicious cluster set only grows.
func TestBlocklistLagMonotone(t *testing.T) {
	fs := parityFS(t, 5, 600)
	start := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	day := func(d int) time.Time { return start.Add(time.Duration(d) * 24 * time.Hour) }
	vt, gsb := blocklist.New(blocklist.VTDefault()), blocklist.New(blocklist.GSBDefault())
	for i, r := range fs.Records {
		vt.MarkMalicious(r.LandingURL, day(i%14))
		gsb.MarkMalicious(r.LandingURL, day(i%14))
	}
	services := []BlocklistLookup{ServiceLookup{vt}, ServiceLookup{gsb}}
	cr := ClusterWPNs(fs, ClusterOptions{Blocked: true})

	label := func(scans ...time.Time) (flags map[string]bool, malClusters map[int]bool) {
		labels, flagged, err := LabelKnownMalicious(fs, services, scans)
		if err != nil {
			t.Fatal(err)
		}
		flags = map[string]bool{}
		for u, svcs := range flagged {
			for _, s := range svcs {
				flags[s+" "+u] = true
			}
		}
		return flags, PropagateMalicious(cr, labels)
	}
	missing := func(sub, super map[string]bool) string {
		for k := range sub {
			if !super[k] {
				return k
			}
		}
		return ""
	}

	var firstFlags int
	prevFlags, prevClusters := map[string]bool{}, map[int]bool{}
	for d := 0; d <= 60; d += 5 {
		flags, clusters := label(day(d))
		if d == 0 {
			firstFlags = len(flags)
		}
		if k := missing(prevFlags, flags); k != "" {
			t.Errorf("day %d un-flags %s, flagged at day %d", d, k, d-5)
		}
		for ci := range prevClusters {
			if !clusters[ci] {
				t.Errorf("day %d clears malicious cluster %d", d, ci)
			}
		}
		if d > 0 {
			both, _ := label(day(d-5), day(d))
			for _, one := range []map[string]bool{prevFlags, flags} {
				if k := missing(one, both); k != "" {
					t.Errorf("scanning days %d and %d drops %s, flagged by one of them", d-5, d, k)
				}
			}
		}
		prevFlags, prevClusters = flags, clusters
	}
	// The ramp must have moved, or the properties above held vacuously.
	if firstFlags >= len(prevFlags) || len(prevClusters) == 0 {
		t.Fatalf("flags %d -> %d, %d malicious clusters: the lag never showed", firstFlags, len(prevFlags), len(prevClusters))
	}
}
