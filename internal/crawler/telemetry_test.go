package crawler_test

import (
	"bytes"
	"testing"

	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/webeco"
)

// TestTelemetryReconcilesWithChaos runs the acceptance chaos profile
// with the full telemetry stack attached and cross-checks three
// independent ledgers of the same events:
//
//  1. the chaos injector's own fault counts (server side),
//  2. the vnet client instrumentation (what browsers observed), and
//  3. the crawler's Degradation report (what the crawl survived).
//
// Server-injected resets and client-side blackholes surface as client
// transport errors; injected 503s are marked with chaos.InjectedHeader
// and tallied by kind. Any drift between the ledgers means telemetry is
// inventing or losing events.
func TestTelemetryReconcilesWithChaos(t *testing.T) {
	reg := telemetry.New()
	eco, err := webeco.New(webeco.Config{Seed: 11, Scale: 0.002, Chaos: acceptanceProfile(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eco.Close() })
	res := crawl(t, eco, func(c *crawler.Config) { c.Metrics = reg })
	snap := reg.Snapshot()
	deg := res.Degradation

	// Ledger 1 vs snapshot: the chaos_faults family is the injector's
	// own stats map, adopted live into the registry.
	chaosFam := snap.Families["chaos_faults"]
	if len(chaosFam) == 0 {
		t.Fatal("chaos_faults family empty: injector not attached to registry")
	}
	stats := eco.Chaos().Stats()
	for kind, n := range stats {
		if got := chaosFam[kind]; got != int64(n) {
			t.Errorf("chaos_faults[%s] = %d, injector says %d", kind, got, n)
		}
	}
	for kind := range chaosFam {
		if _, ok := stats[kind]; !ok && chaosFam[kind] != 0 {
			t.Errorf("chaos_faults[%s] = %d not in injector stats %v", kind, chaosFam[kind], stats)
		}
	}

	// Ledger 1 vs ledger 2: every server-side reset and client-side
	// blackhole must surface as exactly one classified client transport
	// error (requests are dispatched with no connection, so no silent
	// retry on a reused one blurs the mapping). Truncations fail at body
	// read, not at the transport, so they are excluded by construction.
	// The browser sends no request for a URL it cannot load, so no
	// error is a "bad_url".
	errKinds := snap.Families["vnet_client_errors"]
	if n := errKinds["bad_url"]; n != 0 {
		t.Errorf("vnet_client_errors[bad_url] = %d, want 0: the crawl requested URLs it cannot load", n)
	}
	if got, want := errKinds["conn"], chaosFam["reset"]; got != want {
		t.Errorf("vnet_client_errors[conn] = %d, chaos injected %d resets", got, want)
	}
	if got, want := errKinds["blackhole"], chaosFam["blackhole"]; got != want {
		t.Errorf("vnet_client_errors[blackhole] = %d, chaos injected %d blackholes", got, want)
	}
	var totalErrs int64
	for _, n := range errKinds {
		totalErrs += n
	}
	if got := snap.Counters["vnet_client_transport_errors"]; got != totalErrs {
		t.Errorf("vnet_client_transport_errors = %d, classified kinds sum to %d (%v)", got, totalErrs, errKinds)
	}
	// Every injected 503 the server fabricated must have been observed
	// by a client, tagged by kind.
	inj := snap.Families["vnet_injected_faults"]
	for _, kind := range []string{"http_503", "outage_503"} {
		if got, want := inj[kind], chaosFam[kind]; got != want {
			t.Errorf("vnet_injected_faults[%s] = %d, chaos injected %d", kind, got, want)
		}
	}
	if chaosFam["http_503"] == 0 || chaosFam["reset"] == 0 {
		t.Error("profile injected no 503s/resets; reconciliation test is vacuous")
	}

	// Ledger 3: the crawler's telemetry counters must equal the
	// Degradation report field for field.
	for name, want := range map[string]int{
		"crawler_visit_retries":         deg.VisitRetries,
		"crawler_visit_failures":        deg.VisitFailures,
		"crawler_poll_failures":         deg.PollFailures,
		"crawler_breaker_fast_fails":    deg.BreakerFastFails,
		"crawler_containers_lost":       deg.ContainersLost,
		"crawler_containers_recovered":  deg.ContainersRecovered,
		"crawler_visits_aborted":        deg.VisitsAborted,
		"browser_notifications_dropped": deg.DroppedNotifications,
	} {
		if got := snap.Counters[name]; got != int64(want) {
			t.Errorf("%s = %d, Degradation says %d", name, got, want)
		}
	}
	if got, want := snap.Counters["crawler_records_emitted"], int64(len(res.Records)); got != want {
		t.Errorf("crawler_records_emitted = %d, result has %d records", got, want)
	}
	if deg.VisitRetries == 0 {
		t.Error("no visit retries under chaos; reconciliation test is vacuous")
	}

	// Breaker transition ledger sanity: the breaker can only leave the
	// open state as often as it entered it, and half-open trials must
	// come from the open state.
	tr := snap.Families["breaker_transitions"]
	opens := tr["closed→open"] + tr["half-open→open"]
	if tr["open→half-open"] > opens {
		t.Errorf("breaker left open %d times but entered it %d times (%v)", tr["open→half-open"], opens, tr)
	}
	if tr["half-open→closed"]+tr["half-open→open"] > tr["open→half-open"] {
		t.Errorf("breaker left half-open more often than it entered it (%v)", tr)
	}
	if snap.Counters["crawler_breaker_fast_fails"] > 0 && opens == 0 {
		t.Errorf("breaker fast-failed %d polls but never transitioned to open (%v)",
			snap.Counters["crawler_breaker_fast_fails"], tr)
	}

	// Pump latency: one histogram observation per scheduler pump.
	h, ok := snap.Histograms["crawler_pump_seconds"]
	if !ok || h.Count == 0 {
		t.Error("crawler_pump_seconds histogram empty: pump latency not recorded")
	}

	t.Logf("reconciled: chaos=%v errors=%v injected=%v breaker=%v records=%d",
		chaosFam, errKinds, inj, tr, len(res.Records))
}

// TestTelemetryParity: the same seeded chaos crawl with telemetry fully
// attached and fully absent must produce byte-identical records and
// degradation reports. Observation must never perturb the simulation.
func TestTelemetryParity(t *testing.T) {
	run := func(attach bool) []byte {
		var reg *telemetry.Registry
		if attach {
			reg = telemetry.New()
		}
		eco, err := webeco.New(webeco.Config{Seed: 11, Scale: 0.002, Chaos: acceptanceProfile(), Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer eco.Close()
		var tracer *telemetry.Tracer
		if attach {
			tracer = telemetry.NewTracer(eco.Clock.Now)
		}
		res := crawl(t, eco, func(c *crawler.Config) {
			c.Metrics = reg
			c.Tracer = tracer
		})
		if attach && tracer.Len() == 0 {
			t.Fatal("tracer attached but recorded no spans")
		}
		return marshal(t, res)
	}
	if on, off := run(true), run(false); !bytes.Equal(on, off) {
		t.Fatalf("telemetry-on result diverges from telemetry-off at %s", firstDiff(on, off))
	}
}
