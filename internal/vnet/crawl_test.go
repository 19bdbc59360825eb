package vnet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"testing"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/chaos"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/vnet"
	"pushadminer/internal/webeco"
)

// TestCrawlMatchesWire holds a whole crawl over direct dispatch to the
// same crawl over the wire oracle: at seed 11, scale 0.004 and 7 days,
// under no faults and under the acceptance and harsh presets, both
// paths give byte-identical records and Degradation, the same injected
// faults and the same per-host request counts. Every fault kind a
// profile enables must fire, or the comparison proves nothing. At this
// scale harsh's 2% container crashes never fire, and no preset has a
// DNS blackhole, so the harsh row raises crashes to 10% and adds a
// blackhole window; it then covers every fault class: latency, resets,
// 503s, truncation, crashes, blackholes and a push outage.
func TestCrawlMatchesWire(t *testing.T) {
	for _, tc := range []struct{ name, spec string }{
		{"none", "none"},
		{"acceptance", "acceptance"},
		{"harsh", "harsh,crashes=0.1,blackhole=ads.onesignal.net:24h:6h"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			prof, err := chaos.ParseProfile(spec)
			if err != nil {
				t.Fatal(err)
			}
			run := func(wire bool) (out []byte, faults, requests map[string]int) {
				eco, err := webeco.New(webeco.Config{Seed: 11, Scale: 0.004, Chaos: prof})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eco.Close() })
				if wire {
					vnet.UseWire(t, eco.Net)
				}
				res, err := fleet.Run(context.Background(), fleet.Config{Crawl: crawler.Config{
					Clock:            eco.Clock,
					NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
					Driver:           eco,
					Pending:          eco.Push,
					Device:           browser.Desktop,
					CollectionWindow: 7 * 24 * time.Hour,
					CrashPlan:        eco.CrashPlan(),
					FaultCounts:      eco.FaultCounts,
				}}, eco.SeedURLs())
				if err != nil {
					t.Fatal(err)
				}
				if out, err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
				if eco.Chaos() != nil {
					faults = eco.Chaos().Stats()
				}
				return out, faults, eco.Net.RequestCounts()
			}
			got, gotFaults, gotReqs := run(false)
			want, wantFaults, wantReqs := run(true)
			if !bytes.Equal(got, want) {
				t.Errorf("dispatch and wire crawls diverge at %s", firstDiff(got, want))
			}
			if !maps.Equal(gotFaults, wantFaults) {
				t.Errorf("injected faults differ: dispatch %v, wire %v", gotFaults, wantFaults)
			}
			if !maps.Equal(gotReqs, wantReqs) {
				t.Errorf("per-host request counts differ: dispatch %v, wire %v", gotReqs, wantReqs)
			}
			for _, kind := range enabledFaults(prof) {
				if gotFaults[kind] == 0 {
					t.Errorf("%s never injected %s (%v); the comparison does not cover it", spec, kind, gotFaults)
				}
			}
			t.Logf("%d bytes, faults %v", len(got), gotFaults)
		})
	}
}

// enabledFaults lists the chaos_faults kinds p can inject.
func enabledFaults(p *chaos.Profile) []string {
	if p == nil {
		return nil
	}
	var kinds []string
	for _, k := range []struct {
		on   bool
		kind string
	}{
		{p.LatencyFraction > 0, "latency"},
		{p.ResetFraction > 0, "reset"},
		{p.Error5xxFraction > 0, "http_503"},
		{p.TruncateFraction > 0, "truncate"},
		{p.ContainerCrashFraction > 0, "container_crash"},
		{len(p.Blackholes) > 0, "blackhole"},
		{len(p.PushOutages) > 0, "outage_503"},
	} {
		if k.on {
			kinds = append(kinds, k.kind)
		}
	}
	return kinds
}

// firstDiff renders the context around the first diverging byte.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(i-120, 0)
			return fmt.Sprintf("byte %d:\na: %s\nb: %s", i, a[lo:min(i+120, len(a))], b[lo:min(i+120, len(b))])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}
