package crawler_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"testing"

	"pushadminer/internal/chaos"
	"pushadminer/internal/crawler"
	"pushadminer/internal/vnet"
)

// acceptanceProfile is the ISSUE scenario: 5% connection resets, 10%
// 503s, and one 24-hour push-service outage, all from a fixed seed.
func acceptanceProfile() *chaos.Profile {
	p, ok := chaos.Preset("acceptance")
	if !ok {
		panic("acceptance preset missing")
	}
	p.Seed = 5
	return &p
}

func assertUniqueIDs(t *testing.T, recs []*crawler.WPNRecord) {
	t.Helper()
	seen := make(map[int]bool, len(recs))
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate record ID %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
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

// TestCrawlUnderAcceptanceChaos is the headline robustness bound: under
// the acceptance fault profile a full crawl must still collect at least
// 95% of the fault-free record count, mint no duplicate IDs, and
// account for the faults it survived in the Degradation report.
func TestCrawlUnderAcceptanceChaos(t *testing.T) {
	baseline := crawl(t, newChaosEco(t, 0.002, nil), nil)
	if len(baseline.Records) == 0 {
		t.Fatal("fault-free baseline collected nothing")
	}

	res := crawl(t, newChaosEco(t, 0.002, acceptanceProfile()), nil)
	assertUniqueIDs(t, res.Records)
	if min := (len(baseline.Records)*95 + 99) / 100; len(res.Records) < min {
		t.Errorf("chaos crawl collected %d records, want >= %d (95%% of baseline %d)\ndegradation: %+v",
			len(res.Records), min, len(baseline.Records), res.Degradation)
	}

	deg := res.Degradation
	if deg.Faults == nil {
		t.Fatal("Degradation.Faults empty: fault accounting is silent")
	}
	for _, k := range []string{"chaos_reset", "chaos_http_503", "chaos_outage_503"} {
		if deg.Faults[k] == 0 {
			t.Errorf("fault counter %s = 0; the profile should have injected some (faults: %v)", k, deg.Faults)
		}
	}
	if deg.VisitRetries == 0 {
		t.Error("no visit retries under 10%% 503s + 5%% resets; retry path untested")
	}
	t.Logf("baseline=%d chaos=%d degradation=%+v", len(baseline.Records), len(res.Records), deg)
}

// TestCrawlChaosByteDeterministic: two runs with identical (ecosystem
// seed, chaos seed) must produce byte-identical results — records AND
// degradation report.
func TestCrawlChaosByteDeterministic(t *testing.T) {
	run := func() []byte {
		return marshal(t, crawl(t, newChaosEco(t, 0.002, acceptanceProfile()), nil))
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("results diverge at %s", firstDiff(a, b))
	}
}

// TestKillAndResumeConvergence: a killed crawl is simply run again.
// Cancelling the crawl at ¼, ½ and ¾ of the uninterrupted run's ticks
// must return context.Canceled and records that are a byte-identical
// prefix of the uninterrupted run's, and a rerun must reproduce the
// uninterrupted result byte for byte — with faults on and off.
func TestKillAndResumeConvergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof func() *chaos.Profile
	}{
		{"clean", func() *chaos.Profile { return nil }},
		{"faults", acceptanceProfile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Uninterrupted reference run, counting scheduler ticks so the
			// kill points land mid-collection deterministically.
			ecoA := newChaosEco(t, 0.002, tc.prof())
			counter := &tickCancelDriver{PushDriver: ecoA}
			full := crawl(t, ecoA, func(c *crawler.Config) { c.Driver = counter })
			if len(full.Records) == 0 || counter.n < 4 {
				t.Fatalf("reference run too small (records=%d ticks=%d)", len(full.Records), counter.n)
			}

			for q := 1; q <= 3; q++ {
				eco := newChaosEco(t, 0.002, tc.prof())
				ctx, cancel := context.WithCancel(context.Background())
				killer := &tickCancelDriver{PushDriver: eco, limit: counter.n * q / 4, cancel: cancel}
				partial, err := crawlContext(t, ctx, eco, func(c *crawler.Config) { c.Driver = killer })
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("killed at %d/4: err = %v, want context.Canceled", q, err)
				}
				if len(partial.Records) >= len(full.Records) {
					t.Fatalf("kill at %d/4 fired too late: partial=%d full=%d", q, len(partial.Records), len(full.Records))
				}
				want := marshal(t, full.Records[:len(partial.Records)])
				if got := marshal(t, partial.Records); !bytes.Equal(want, got) {
					t.Errorf("killed at %d/4: records are not a prefix of the uninterrupted run's: %s",
						q, firstDiff(want, got))
				}
				t.Logf("killed at %d/4: %d of %d records", q, len(partial.Records), len(full.Records))
			}

			rerun := crawl(t, newChaosEco(t, 0.002, tc.prof()), nil)
			if want, got := marshal(t, full), marshal(t, rerun); !bytes.Equal(want, got) {
				t.Errorf("rerun differs from the uninterrupted run: %s", firstDiff(want, got))
			}
		})
	}
}

// TestContainerCrashRecovery drives an aggressive crash plan and checks
// that containers die, are re-seeded within bounds, and the crawl still
// collects, with all of it visible in the report.
func TestContainerCrashRecovery(t *testing.T) {
	prof := &chaos.Profile{Seed: 5, ContainerCrashFraction: 0.35}
	res := crawl(t, newChaosEco(t, 0.002, prof), nil)
	deg := res.Degradation
	if deg.ContainersLost == 0 {
		t.Fatal("crash plan never fired; test is vacuous")
	}
	if deg.ContainersRecovered == 0 {
		t.Error("no container ever recovered from a crash")
	}
	if deg.ContainersRecovered > deg.ContainersLost {
		t.Errorf("recovered %d > lost %d", deg.ContainersRecovered, deg.ContainersLost)
	}
	if len(res.Records) == 0 {
		t.Fatal("crashes wiped out the whole crawl")
	}
	assertUniqueIDs(t, res.Records)
	if deg.Faults["chaos_container_crash"] == 0 {
		t.Errorf("crash counter missing from faults: %v", deg.Faults)
	}
	t.Logf("records=%d lost=%d recovered=%d", len(res.Records), deg.ContainersLost, deg.ContainersRecovered)
}

// TestConnectionReuseInvisible: reusing the request path must change
// nothing a crawl observes. Requests are dispatched with no connection,
// so what a crawl can reuse is a client's round tripper (the network's
// dispatch behind the client-side fault and counting wrappers, where
// the connection pool used to sit). For one fault class at a time, a
// crawl whose every container and request shares one round tripper and
// one that builds a fresh round tripper per request give byte-identical
// records and Degradation, equal injected-fault counts and equal
// per-host request counts; the ecosystem's own clients, one round
// tripper per container, lie between the two. Resets and truncation
// are rows too: with nothing pooled, no fault class can make reuse
// visible.
func TestConnectionReuseInvisible(t *testing.T) {
	for _, tc := range []struct {
		name, spec, fault string
	}{
		{"latency", "latency=1,latmin=1ms,latmax=1ms", "latency"}, // the benchmark's study profile
		{"errors", "errors=0.10,retryafter=1s", "http_503"},
		{"outage", "outage=48h:24h", "outage_503"}, // as long as the acceptance preset's outage
		{"blackhole", "blackhole=ads.propellerads.net:24h:6h", "blackhole"},
		{"crashes", "crashes=0.05", "container_crash"},
		{"resets", "resets=0.05", "reset"},
		{"truncate", "truncate=0.05", "truncate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof, err := chaos.ParseProfile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			run := func(fresh bool) (out []byte, faults, requests map[string]int) {
				eco := newChaosEco(t, 0.002, prof)
				rt := eco.Net.ClientNoRedirect().Transport
				if fresh {
					rt = freshPerRequest{eco.Net}
				}
				res := crawl(t, eco, func(c *crawler.Config) {
					c.NewClient = func() *http.Client {
						client := eco.Net.ClientNoRedirect()
						client.Transport = rt
						return client
					}
				})
				return marshal(t, res), eco.Chaos().Stats(), eco.Net.RequestCounts()
			}
			shared, sharedFaults, sharedReqs := run(false)
			fresh, freshFaults, freshReqs := run(true)
			if sharedFaults[tc.fault] == 0 {
				t.Fatalf("%q injected no %s faults (%v); the case is vacuous", tc.spec, tc.fault, sharedFaults)
			}
			if !bytes.Equal(shared, fresh) {
				t.Errorf("shared and fresh round-tripper crawls diverge at %s", firstDiff(shared, fresh))
			}
			if !maps.Equal(sharedFaults, freshFaults) {
				t.Errorf("injected faults differ: shared %v, fresh %v", sharedFaults, freshFaults)
			}
			if !maps.Equal(sharedReqs, freshReqs) {
				t.Errorf("per-host request counts differ: shared %v, fresh %v", sharedReqs, freshReqs)
			}
			t.Logf("faults=%v", sharedFaults)
		})
	}
}

// freshPerRequest serves each request over a round tripper built for it
// alone, so no request-path state outlives a request.
type freshPerRequest struct{ net *vnet.Network }

func (f freshPerRequest) RoundTrip(req *http.Request) (*http.Response, error) {
	return f.net.ClientNoRedirect().Transport.RoundTrip(req)
}
