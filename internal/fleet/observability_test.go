package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pushadminer/internal/browser"
	"pushadminer/internal/chaos"
	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/webeco"
)

// TestFleetTraceParity: a traced crawl's trace must be byte-identical
// (as JSONL) to the reference loop's trace. Pinned at MaxContainers=1
// and PumpWorkers=1 — the only setting where span emission order is
// deterministic even within the seed fan-out.
func TestFleetTraceParity(t *testing.T) {
	traced := func(t *testing.T, crawl func(cfg crawler.Config, seeds []string)) ([]byte, int) {
		t.Helper()
		tr := telemetry.NewTracer(nil)
		eco := newEco(t, 11, nil)
		crawl(crawlConfig(eco, func(c *crawler.Config) {
			c.MaxContainers = 1
			c.PumpWorkers = 1
			c.Tracer = tr
		}), eco.SeedURLs())
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), tr.Len()
	}

	want, spans := traced(t, func(cfg crawler.Config, seeds []string) { referenceCrawl(t, cfg, seeds) })
	if spans == 0 {
		t.Fatal("baseline produced no spans; trace parity is vacuous")
	}

	t.Run("kill-free", func(t *testing.T) {
		got, _ := traced(t, func(cfg crawler.Config, seeds []string) {
			if _, err := Run(context.Background(), Config{Crawl: cfg}, seeds); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(want, got) {
			t.Errorf("Run's trace diverges from the reference trace:\n%s", lineDiff(want, got))
		}
	})
}

// chainKey is what a WPN record and a rebuilt attack chain must agree
// on: the device, the notification, its click and landing, and the
// subscription that received it.
type chainKey struct {
	device, title, target, landing, sw, origin string
	shown, clicked, registered                 int64
	crashed                                    bool
}

func recordKey(t *testing.T, r *crawler.WPNRecord) chainKey {
	t.Helper()
	u, err := url.Parse(r.SourceURL)
	if err != nil {
		t.Fatalf("record %d: source URL: %v", r.ID, err)
	}
	return chainKey{
		device: r.Device, title: r.Title, target: r.TargetURL, landing: r.LandingURL,
		sw: r.SWURL, origin: u.Scheme + "://" + u.Hostname(),
		shown: r.ShownAt.UnixNano(), clicked: r.ClickedAt.UnixNano(), registered: r.RegisteredAt.UnixNano(),
		crashed: r.Crashed,
	}
}

func chainKeyOf(c telemetry.Chain, device string) chainKey {
	return chainKey{
		device: device, title: c.Title, target: c.Target, landing: c.LandingURL,
		sw: c.SWURL, origin: c.Origin,
		shown: c.ShownAt.UnixNano(), clicked: c.ClickedAt.UnixNano(), registered: c.RegisteredAt.UnixNano(),
		crashed: c.Crashed,
	}
}

// TestChainsMatchRecords is the forensic guarantee at crawl scale: the
// attack chains telemetry.Chains rebuilds from a crawl's trace, read
// back from JSONL, are the crawl's WPN records one to one. The crawl
// covers desktop and mobile, whose repeated titles and subscriptions
// sharing one SW script exercise the linkage keys. The match must also
// hold under harsh faults, and the trace's parent links must be exact.
func TestChainsMatchRecords(t *testing.T) {
	crawl := func(t *testing.T, prof *chaos.Profile) ([]*crawler.WPNRecord, []telemetry.Span) {
		t.Helper()
		eco, err := webeco.New(webeco.Config{Seed: 11, Scale: 0.004, Chaos: prof})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eco.Close() })
		tr := telemetry.NewTracer(nil)
		var records []*crawler.WPNRecord
		for _, dev := range []struct {
			device browser.DeviceType
			real   bool
		}{{browser.Desktop, false}, {browser.Mobile, true}} {
			res, err := Run(context.Background(), Config{
				Crawl: crawlConfig(eco, func(c *crawler.Config) {
					c.Device, c.RealDevice, c.Tracer = dev.device, dev.real, tr
				}),
			}, eco.SeedURLs())
			if err != nil {
				t.Fatalf("%s crawl: %v", dev.device, err)
			}
			records = append(records, res.Records...)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		spans, err := telemetry.ReadSpans(&buf)
		if err != nil {
			t.Fatalf("trace does not read back: %v", err)
		}
		return records, spans
	}

	matchRecords := func(t *testing.T, records []*crawler.WPNRecord, spans []telemetry.Span) {
		t.Helper()
		devices := make(map[string]string)
		for _, sp := range spans {
			if sp.Name == string(browser.EvVisit) {
				devices[sp.Container] = sp.Attrs["device"]
			}
		}
		chains := make(map[chainKey]int)
		clicked := 0
		for _, c := range telemetry.Chains(spans) {
			if c.Clicked {
				chains[chainKeyOf(c, devices[c.Container])]++
				clicked++
			}
		}
		unmatched := 0
		for _, r := range records {
			k := recordKey(t, r)
			if chains[k] == 0 {
				if unmatched++; unmatched <= 3 {
					t.Errorf("record %d has no matching chain: %+v", r.ID, k)
				}
				continue
			}
			chains[k]--
		}
		if unmatched > 0 || clicked != len(records) {
			t.Fatalf("%d of %d records unmatched; %d clicked chains for %d records", unmatched, len(records), clicked, len(records))
		}
	}

	// The live links: every click under a notification with its title,
	// every push under the registration with its token.
	liveLinks := func(t *testing.T, spans []telemetry.Span) {
		t.Helper()
		var clicks, rootClicks, pushes, misplaced int
		for _, sp := range spans {
			var parent telemetry.Span
			if sp.Parent > 0 {
				parent = spans[sp.Parent-1]
			}
			switch sp.Name {
			case string(browser.EvNotificationClicked):
				clicks++
				if sp.Parent == 0 {
					rootClicks++
				} else if parent.Name != string(browser.EvNotificationShown) || parent.Attrs["title"] != sp.Attrs["title"] {
					t.Errorf("click span %d sits under %s %q", sp.ID, parent.Name, parent.Attrs["title"])
				}
			case string(browser.EvPushReceived):
				pushes++
				if parent.Name != string(browser.EvSWRegistered) || parent.Container != sp.Container || parent.Attrs["token"] != sp.Attrs["token"] {
					misplaced++
				}
			}
		}
		if rootClicks > 0 || misplaced > 0 {
			t.Errorf("%d of %d notification_clicked spans are roots; %d of %d push_received spans are not under their token's registration",
				rootClicks, clicks, misplaced, pushes)
		}
		t.Logf("%d clicks, %d pushes", clicks, pushes)
	}

	t.Run("one-shard", func(t *testing.T) {
		records, spans := crawl(t, nil)
		if len(records) == 0 {
			t.Fatal("crawl collected no records; the match is vacuous")
		}
		matchRecords(t, records, spans)
		liveLinks(t, spans)
	})

	// Under harsh faults some clicks' navigations fail, and crashed
	// containers re-visit their seed: no chain may take a later landing.
	t.Run("one-shard-harsh", func(t *testing.T) {
		prof, err := chaos.ParseProfile("harsh")
		if err != nil {
			t.Fatal(err)
		}
		records, spans := crawl(t, prof)
		matchRecords(t, records, spans)
	})
}

// TestFleetLedger: the events a crawl appends to its ledger reconcile
// with its result and the fleet_events family, survive the JSONL round
// trip, and are deterministic — two identical chaos runs write
// identical ledger bytes.
func TestFleetLedger(t *testing.T) {
	run := func(t *testing.T) (*crawler.Result, *telemetry.Registry, []byte) {
		t.Helper()
		reg := telemetry.New()
		led := telemetry.NewLedger()
		eco := newEco(t, 11, acceptance())
		res, err := Run(context.Background(), Config{
			Crawl:  crawlConfig(eco, func(c *crawler.Config) { c.Metrics = reg }),
			Ledger: led,
		}, eco.SeedURLs())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteLedger(&buf, led.Events()); err != nil {
			t.Fatal(err)
		}
		return res, reg, buf.Bytes()
	}

	res, reg, a := run(t)
	events, err := telemetry.ReadLedger(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	merged := 0
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Time.IsZero() || ev.Attrs["device"] != "desktop" {
			t.Fatalf("crawl event lacks its sim time or device: %+v", ev)
		}
		switch ev.Kind {
		case EvShardStarted:
			if ev.Attrs["shard"] != "0" || ev.Attrs["containers"] != strconv.Itoa(res.Containers) {
				t.Errorf("shard_started attrs = %v, want shard 0 and %d containers", ev.Attrs, res.Containers)
			}
		case EvMerge:
			if _, ok := ev.Attrs["shard"]; ok {
				t.Errorf("merge event carries a shard attr: %v", ev.Attrs)
			}
			n, _ := strconv.Atoi(ev.Attrs["records"])
			merged += n
		default:
			t.Errorf("unexpected %q event", ev.Kind)
		}
	}
	if counts[EvShardStarted] != 1 {
		t.Errorf("%d shard_started events, want 1", counts[EvShardStarted])
	}
	if len(res.Records) == 0 || merged != len(res.Records) {
		t.Errorf("merge events account for %d records, the crawl collected %d", merged, len(res.Records))
	}
	// The fleet_events metric family mirrors the ledger exactly.
	fam := reg.Snapshot().Families["fleet_events"]
	if len(fam) != len(counts) {
		t.Errorf("fleet_events has %d kinds, ledger has %d", len(fam), len(counts))
	}
	for kind, n := range counts {
		if fam[kind] != int64(n) {
			t.Errorf("fleet_events[%s] = %d, ledger has %d", kind, fam[kind], n)
		}
	}

	// Determinism: same seeds, same chaos plan → identical ledger bytes.
	if _, _, b := run(t); !bytes.Equal(a, b) {
		t.Errorf("ledger is not deterministic:\n%s", lineDiff(a, b))
	}
}

// TestFleetzEndpoint: after a crawl, the debug server's /fleetz serves
// the final published status as JSON and as the text dashboard.
func TestFleetzEndpoint(t *testing.T) {
	reg := telemetry.New()
	eco := newEco(t, 11, acceptance())
	res, err := Run(context.Background(), Config{
		Crawl: crawlConfig(eco, func(c *crawler.Config) { c.Metrics = reg }),
	}, eco.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}

	srv, err := telemetry.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return body
	}

	var payload struct {
		Active bool         `json:"active"`
		Fleet  *FleetStatus `json:"fleet"`
	}
	if err := json.Unmarshal(get("/fleetz"), &payload); err != nil {
		t.Fatal(err)
	}
	if !payload.Active || payload.Fleet == nil {
		t.Fatalf("/fleetz inactive after a fleet run: %+v", payload)
	}
	st := payload.Fleet
	if !st.Done || st.Records != len(res.Records) || st.Containers != res.Containers {
		t.Errorf("final status: done=%v records=%d containers=%d, want done with %d records and %d containers",
			st.Done, st.Records, st.Containers, len(res.Records), res.Containers)
	}
	// Seeding emits shard_started and records merged, so the event
	// counter runs even with no ledger attached.
	if st.Events < 2 {
		t.Errorf("status counts %d events, want >= 2", st.Events)
	}

	text := string(get("/fleetz?format=text"))
	for _, want := range []string{"fleet desktop", "done", "containers", "breakers"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dashboard missing %q:\n%s", want, text)
		}
	}
}

// TestFleetzActiveWhileSeeding: a crawl publishes its status as soon
// as it starts, so /fleetz shows a running crawl while it seeds — also
// between a study's desktop and mobile crawls, where the second crawl's
// registration replaces the first one's final status.
func TestFleetzActiveWhileSeeding(t *testing.T) {
	eco := newEco(t, 11, nil)
	var mu sync.Mutex
	var atFirstRequest any
	seen := false
	eco.Net.SetMiddleware(func(host string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			if !seen {
				atFirstRequest, seen = telemetry.Status("fleet"), true
			}
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	})
	reg := telemetry.New()
	for _, dev := range []browser.DeviceType{browser.Desktop, browser.Mobile} {
		mu.Lock()
		atFirstRequest, seen = nil, false
		mu.Unlock()
		_, err := Run(context.Background(), Config{
			Crawl: crawlConfig(eco, func(c *crawler.Config) {
				c.Metrics = reg
				c.Device = dev
			}),
		}, eco.SeedURLs())
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		got := atFirstRequest
		mu.Unlock()
		if st, ok := got.(*FleetStatus); !ok || st.Device != dev.String() || st.Done {
			t.Errorf("%s: /fleetz status at the first seed visit = %#v, want the running %s crawl", dev, got, dev)
		}
	}
}

// TestFleetObservabilityDisabled: with no registry and no tracer, an
// attached ledger still records every event.
func TestFleetObservabilityDisabled(t *testing.T) {
	eco := newEco(t, 11, nil)
	led := telemetry.NewLedger()
	_, err := Run(context.Background(), Config{
		Crawl:  crawlConfig(eco, nil),
		Ledger: led,
	}, eco.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Events()) == 0 {
		t.Error("ledger empty; event timeline must not depend on telemetry")
	}
}
