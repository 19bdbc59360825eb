package crawler_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/webeco"
)

// TestSerialParallelParity is the determinism contract of the batched
// pump phases: the same crawl at PumpWorkers=1 (the serial reference
// path) and PumpWorkers=8 must produce byte-identical Result JSON —
// records, Degradation, the lot — and identical registry counters and
// families (every request, retry, fault and breaker edge the crawl and
// the ecosystem counted), across seeds and with chaos on and off.
// Gauges are left out: crawler_pump_workers differs by design.
func TestSerialParallelParity(t *testing.T) {
	run := func(seed int64, prof *chaos.Profile, window time.Duration, workers int) ([]byte, []byte) {
		t.Helper()
		reg := telemetry.New()
		eco, err := webeco.New(webeco.Config{Seed: seed, Scale: 0.002, Chaos: prof, FlushWorkers: workers, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer eco.Close()
		res, err := fleet.Run(context.Background(), fleet.Config{
			Crawl: crawlConfig(eco, func(c *crawler.Config) {
				c.PumpWorkers = workers
				c.BatchWindow = window
				c.Metrics = reg
			}),
		}, eco.SeedURLs())
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if snap.Counters["crawler_records_emitted"] == 0 || len(snap.Families["vnet_requests_by_host"]) == 0 {
			t.Fatal("registry counted no records or requests; the count comparison is vacuous")
		}
		counts, err := json.MarshalIndent(struct {
			Counters map[string]int64
			Families map[string]map[string]int64
		}{snap.Counters, snap.Families}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return marshal(t, res), counts
	}

	for _, tc := range []struct {
		name   string
		seed   int64
		prof   *chaos.Profile
		window time.Duration
	}{
		{"seed11", 11, nil, 0},
		{"seed23", 23, nil, 0},
		{"seed11/chaos", 11, acceptanceProfile(), 0},
		{"seed23/chaos", 23, acceptanceProfile(), 0},
		// Tick coalescing plus fault injection: the quantized event
		// loop must stay byte-deterministic too.
		{"seed11/window/chaos", 11, acceptanceProfile(), time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serialRes, serialCounts := run(tc.seed, tc.prof, tc.window, 1)
			parallelRes, parallelCounts := run(tc.seed, tc.prof, tc.window, 8)
			if !bytes.Equal(serialRes, parallelRes) {
				t.Errorf("parallel Result diverges from serial (serial %d bytes, parallel %d bytes):\n%s",
					len(serialRes), len(parallelRes), firstDiff(serialRes, parallelRes))
			}
			if !bytes.Equal(serialCounts, parallelCounts) {
				t.Errorf("parallel registry counts diverge from serial:\n%s", firstDiff(serialCounts, parallelCounts))
			}
			var res crawler.Result
			if err := json.Unmarshal(serialRes, &res); err != nil {
				t.Fatal(err)
			}
			if len(res.Records) == 0 {
				t.Error("parity run collected no records; test is vacuous")
			}
		})
	}
}

// cancelOnFirstRequest is a RoundTripper that cancels a context on its
// first request and fails every request, forcing visitRetry onto its
// retry ladder with a context that is already dead.
type cancelOnFirstRequest struct {
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnFirstRequest) RoundTrip(*http.Request) (*http.Response, error) {
	c.once.Do(c.cancel)
	return nil, errors.New("injected transport failure")
}

// TestVisitRetryAbortsOnCancel pins the satellite bugfix: a context
// cancelled mid-retry must abort the ladder at the next attempt — not
// burn through the remaining attempts — and the abort must be tallied
// in Degradation.VisitsAborted rather than as a retry or failure.
func TestVisitRetryAbortsOnCancel(t *testing.T) {
	eco := newEco(t, 0.002)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt := &cancelOnFirstRequest{cancel: cancel}
	res, err := crawlContext(t, ctx, eco, func(c *crawler.Config) {
		c.NewClient = func() *http.Client { return &http.Client{Transport: rt} }
		c.MaxContainers = 1 // one visit in flight: the abort count is exact
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deg := res.Degradation
	if deg.VisitsAborted != 1 {
		t.Errorf("VisitsAborted = %d, want 1 (attempt 1 fails and cancels, attempt 2 must abort)", deg.VisitsAborted)
	}
	if deg.VisitRetries != 0 {
		t.Errorf("VisitRetries = %d, want 0: the aborted attempt must not count as a retry", deg.VisitRetries)
	}
	if deg.VisitFailures != 0 {
		t.Errorf("VisitFailures = %d, want 0: the abort must not count as an exhausted ladder", deg.VisitFailures)
	}
}

// TestCrawlHonorsNotificationCap drives a full crawl with a cap of one
// notification per container. The cap gates scheduling, not emission: a
// container's single pump may drain a multi-message queue, so a
// container can overshoot by the depth of one queue — but once at cap
// it must never be pumped again. The old final drain broke exactly
// that, re-pumping every at-cap container at end of window and emitting
// everything queued since its last resume; the 2× bound comfortably
// admits single-pump overshoot while failing under the old drain.
func TestCrawlHonorsNotificationCap(t *testing.T) {
	const cap = 1
	eco := newEco(t, 0.002)
	res := crawl(t, eco, func(c *crawler.Config) {
		c.MaxNotificationsPerContainer = cap
		c.CrashPlan = nil // keep the container set fixed
	})
	if len(res.Records) == 0 {
		t.Fatal("cap run collected no records; test is vacuous")
	}
	if got, max := len(res.Records), 2*res.Containers*cap; got > max {
		t.Errorf("collected %d records from %d containers with cap %d (max %d with single-pump overshoot)",
			got, res.Containers, cap, max)
	}
}
