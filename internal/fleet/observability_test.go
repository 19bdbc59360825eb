package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
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

// snapshotCounts flattens a snapshot to one count per key — counters,
// gauges, family members ("name{label}") and histogram observation counts
// ("name.count") — leaving out the fleet's own control-plane
// instruments (fleet_*), which count heartbeats, kills and restarts.
func snapshotCounts(s telemetry.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for k, v := range s.Counters {
		out[k] = v
	}
	for k, v := range s.Gauges {
		out[k] = v
	}
	for k, fam := range s.Families {
		for lv, v := range fam {
			out[k+"{"+lv+"}"] = v
		}
	}
	for k, h := range s.Histograms {
		out[k+".count"] = h.Count
	}
	for k := range out {
		if strings.HasPrefix(k, "fleet_") {
			delete(out, k)
		}
	}
	return out
}

// TestFleetTelemetryExactMerge: every shard worker counts into the
// crawl's one registry, so the fleet's telemetry is the exact merge of
// what its workers did, at any shard count, under kills, restarts, work
// stealing, and workers lost for good whose containers finish on their
// adopters. Every count outside fleet_* must equal the one-shard
// kill-free run's at the same seed and faults; the ecosystem shares the
// registry, so requests, responses and injected faults count too.
func TestFleetTelemetryExactMerge(t *testing.T) {
	run := func(t *testing.T, seed int64, prof *chaos.Profile, shards, maxRestarts int, kills bool) (map[string]int64, *Report) {
		t.Helper()
		reg := telemetry.New()
		eco, err := webeco.New(webeco.Config{Seed: seed, Scale: 0.002, Chaos: prof, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer eco.Close()
		var plan func(string, int) bool
		if kills {
			plan = eco.WorkerCrashPlan()
		}
		_, rep, err := Run(context.Background(), Config{
			Crawl:           crawlConfig(eco, func(c *crawler.Config) { c.Metrics = reg }),
			Shards:          shards,
			MaxRestarts:     maxRestarts,
			WorkerCrashPlan: plan,
			Dir:             t.TempDir(),
		}, eco.SeedURLs())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return snapshotCounts(reg.Snapshot()), rep
	}

	for _, tc := range []struct {
		name        string
		seed        int64
		chaos       bool
		shards      []int
		maxRestarts int
	}{
		{"seed11", 11, false, []int{1, 2, 4}, 0},
		{"seed11/chaos", 11, true, []int{2, 4}, 0},
		{"seed23/chaos", 23, true, []int{3}, 0},
		// Never restart: every kill loses a worker, and its containers
		// finish on the adopting shard.
		{"seed11/lost-workers", 11, true, []int{4}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var prof *chaos.Profile
			if tc.chaos {
				prof = chaosProfile(0.05)
			}
			want, _ := run(t, tc.seed, prof, 1, 0, false)
			if want["crawler_records_emitted"] == 0 {
				t.Fatal("kill-free run emitted no records; the comparison is vacuous")
			}
			for _, shards := range tc.shards {
				got, rep := run(t, tc.seed, prof, shards, tc.maxRestarts, true)
				if tc.maxRestarts < 0 && rep.WorkersLost == 0 {
					t.Fatalf("shards=%d: no worker lost; the lost-worker case is untested", shards)
				}
				var diffs []string
				for k := range mergeKeys(want, got) {
					if got[k] != want[k] {
						diffs = append(diffs, fmt.Sprintf("%s = %d, kill-free one-shard %d", k, got[k], want[k]))
					}
				}
				sort.Strings(diffs)
				if len(diffs) > 0 {
					t.Errorf("shards=%d (kills=%d lost=%d): %d of %d counts differ:\n%s",
						shards, rep.Kills, rep.WorkersLost, len(diffs), len(want), strings.Join(diffs, "\n"))
				}
				t.Logf("shards=%d kills=%d restarts=%d lost=%d stolen=%d: %d counts compared",
					shards, rep.Kills, rep.Restarts, rep.WorkersLost, rep.ContainersStolen, len(want))
			}
		})
	}
}

// TestFleetTraceParity: a traced one-shard fleet run's trace must be
// byte-identical (as JSONL) to the reference loop's trace. Pinned at
// MaxContainers=1 and PumpWorkers=1 — the only setting where span
// emission order is deterministic even within the seed fan-out — and
// exercised both kill-free and under a worker kill + restart, where
// the persisted chain-recorder state must keep cross-restart parent
// links intact.
func TestFleetTraceParity(t *testing.T) {
	serial := func(c *crawler.Config) {
		c.MaxContainers = 1
		c.PumpWorkers = 1
	}
	traceJSONL := func(t *testing.T, tr *telemetry.Tracer) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	baseline := func(t *testing.T) []byte {
		tr := telemetry.NewTracer(nil)
		eco := newEco(t, 11, nil)
		referenceCrawl(t, crawlConfig(eco, func(c *crawler.Config) {
			serial(c)
			c.Tracer = tr
		}), eco.SeedURLs())
		if tr.Len() == 0 {
			t.Fatal("baseline produced no spans; trace parity is vacuous")
		}
		return traceJSONL(t, tr)
	}

	fleetTrace := func(t *testing.T, plan func(string, int) bool) ([]byte, int, *Report) {
		tr := telemetry.NewTracer(nil)
		eco := newEco(t, 11, nil)
		_, rep, err := Run(context.Background(), Config{
			Crawl: crawlConfig(eco, func(c *crawler.Config) {
				serial(c)
				c.Tracer = tr
			}),
			Shards:          1,
			Dir:             t.TempDir(),
			WorkerCrashPlan: plan,
		}, eco.SeedURLs())
		if err != nil {
			t.Fatal(err)
		}
		return traceJSONL(t, tr), tr.Len(), rep
	}

	want := baseline(t)

	t.Run("kill-free", func(t *testing.T) {
		got, spans, _ := fleetTrace(t, nil)
		if spans == 0 {
			t.Error("fleet trace is empty")
		}
		if !bytes.Equal(want, got) {
			t.Errorf("fleet trace diverges from the reference trace:\n%s", lineDiff(want, got))
		}
	})

	t.Run("kill-restart", func(t *testing.T) {
		got, _, rep := fleetTrace(t, func(workerID string, cycle int) bool {
			return cycle == 2 || cycle == 9
		})
		if rep.Kills != 2 || rep.Restarts != 2 {
			t.Fatalf("kills=%d restarts=%d, want 2/2", rep.Kills, rep.Restarts)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("fleet trace under kills diverges from the reference trace:\n%s", lineDiff(want, got))
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
// hold under harsh faults. The trace's parent links must be exact as
// well, on one shard and on a 4-shard fleet whose killed workers never
// restart, where stolen containers keep their chain state because every
// shard traces into the crawl's one tracer.
func TestChainsMatchRecords(t *testing.T) {
	crawl := func(t *testing.T, shards, maxRestarts int, prof *chaos.Profile) ([]*crawler.WPNRecord, []telemetry.Span, int) {
		t.Helper()
		eco, err := webeco.New(webeco.Config{Seed: 11, Scale: 0.004, Chaos: prof})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eco.Close() })
		tr := telemetry.NewTracer(nil)
		var records []*crawler.WPNRecord
		stolen := 0
		for _, dev := range []struct {
			device browser.DeviceType
			real   bool
		}{{browser.Desktop, false}, {browser.Mobile, true}} {
			res, rep, err := Run(context.Background(), Config{
				Crawl: crawlConfig(eco, func(c *crawler.Config) {
					c.Device, c.RealDevice, c.Tracer = dev.device, dev.real, tr
				}),
				Shards:          shards,
				MaxRestarts:     maxRestarts,
				WorkerCrashPlan: eco.WorkerCrashPlan(),
				Dir:             t.TempDir(),
			}, eco.SeedURLs())
			if err != nil {
				t.Fatalf("%s crawl: %v", dev.device, err)
			}
			records = append(records, res.Records...)
			stolen += rep.ContainersStolen
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		spans, err := telemetry.ReadSpans(&buf)
		if err != nil {
			t.Fatalf("trace does not read back: %v", err)
		}
		return records, spans, stolen
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
		records, spans, _ := crawl(t, 1, 0, nil)
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
		records, spans, _ := crawl(t, 1, 0, prof)
		matchRecords(t, records, spans)
	})

	t.Run("four-shards-stealing", func(t *testing.T) {
		prof, err := chaos.ParseProfile("workercrashes=0.05")
		if err != nil {
			t.Fatal(err)
		}
		records, spans, stolen := crawl(t, 4, -1, prof)
		if stolen == 0 {
			t.Fatal("no container was stolen; the adopted-chain case is untested")
		}
		matchRecords(t, records, spans)
		liveLinks(t, spans)
		t.Logf("%d records, %d containers stolen", len(records), stolen)
	})
}

// TestFleetLedger: the events a fleet appends to its ledger reconcile
// with the report and the fleet_* metrics, survive the JSONL round
// trip, and are deterministic — two identical chaos runs write
// identical ledger bytes.
func TestFleetLedger(t *testing.T) {
	run := func(t *testing.T) (*Report, *telemetry.Registry, []byte) {
		t.Helper()
		reg := telemetry.New()
		led := telemetry.NewLedger()
		eco := newEco(t, 11, chaosProfile(0.05))
		_, rep, err := Run(context.Background(), Config{
			Crawl:           crawlConfig(eco, func(c *crawler.Config) { c.Metrics = reg }),
			Shards:          4,
			WorkerCrashPlan: eco.WorkerCrashPlan(),
			Dir:             t.TempDir(),
			Ledger:          led,
		}, eco.SeedURLs())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteLedger(&buf, led.Events()); err != nil {
			t.Fatal(err)
		}
		return rep, reg, buf.Bytes()
	}

	rep, reg, a := run(t)
	events, err := telemetry.ReadLedger(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	stolen := 0
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Time.IsZero() || ev.Attrs["device"] != "desktop" {
			t.Fatalf("fleet event lacks its sim time or device: %+v", ev)
		}
		if _, ok := ev.Attrs["shard"]; ok == (ev.Kind == EvMerge) {
			t.Errorf("%s event shard attr = %q; only fleet-wide merges omit it", ev.Kind, ev.Attrs["shard"])
		}
		if ev.Kind == EvAdopt {
			n, _ := strconv.Atoi(ev.Attrs["containers"])
			stolen += n
		}
	}
	if counts[EvShardStarted] != rep.Shards {
		t.Errorf("%d shard_started events, want %d", counts[EvShardStarted], rep.Shards)
	}
	for kind, want := range map[string]int{
		EvKillDetected:    rep.Kills,
		EvHeartbeatMissed: rep.Kills, // in-process: every miss is a kill
		EvRestart:         rep.Restarts,
		EvWorkerLost:      rep.WorkersLost,
		EvOrphanSteal:     rep.WorkersLost,
		EvAdopt:           rep.WorkersLost,
	} {
		if counts[kind] != want {
			t.Errorf("%d %q events, report implies %d", counts[kind], kind, want)
		}
	}
	if stolen != rep.ContainersStolen {
		t.Errorf("adopt events account for %d containers, report says %d", stolen, rep.ContainersStolen)
	}
	if counts[EvMerge] == 0 {
		t.Error("no merge events; records were collected")
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

// TestFleetzEndpoint: after a fleet run, the debug server's /fleetz
// serves the final published status as JSON and as the text dashboard.
func TestFleetzEndpoint(t *testing.T) {
	reg := telemetry.New()
	eco := newEco(t, 11, chaosProfile(0.05))
	_, rep, err := Run(context.Background(), Config{
		Crawl:           crawlConfig(eco, func(c *crawler.Config) { c.Metrics = reg }),
		Shards:          4,
		WorkerCrashPlan: eco.WorkerCrashPlan(),
		Dir:             t.TempDir(),
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
	if !st.Done || st.Shards != 4 || len(st.Workers) != 4 {
		t.Errorf("final status wrong: done=%v shards=%d workers=%d", st.Done, st.Shards, len(st.Workers))
	}
	if st.Kills != rep.Kills || st.Restarts != rep.Restarts || st.Lost != rep.WorkersLost {
		t.Errorf("status control-plane totals diverge from report: %+v vs %+v", st, rep)
	}
	// Every shard emits shard_started and every kill kill_detected, so
	// the event counter runs even with no ledger attached.
	if st.Events < st.Shards+st.Kills {
		t.Errorf("status counts %d events, want >= %d", st.Events, st.Shards+st.Kills)
	}
	live := 0
	for _, w := range st.Workers {
		if w.Alive {
			live++
		}
		if w.Alive && w.Containers == 0 && !w.Lost {
			t.Errorf("live worker %d shows 0 containers: %+v", w.Shard, w)
		}
	}
	if live != st.LiveShards {
		t.Errorf("LiveShards=%d but %d workers alive", st.LiveShards, live)
	}

	text := string(get("/fleetz?format=text"))
	for _, want := range []string{"fleet desktop", "shard", "heartbeats"} {
		if !strings.Contains(text, want) {
			t.Errorf("text dashboard missing %q:\n%s", want, text)
		}
	}
}

// TestFleetzActiveWhileSeeding: a fleet publishes its status as soon
// as it is built, so /fleetz shows a running fleet while it seeds —
// also between a study's desktop and mobile fleets, where the second
// fleet's registration replaces the first one's final status.
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
		_, _, err := Run(context.Background(), Config{
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
			t.Errorf("%s: /fleetz status at the first seed visit = %#v, want the running %s fleet", dev, got, dev)
		}
	}
}

// TestFleetObservabilityDisabled: with no registry and no tracer, an
// attached ledger still records every event.
func TestFleetObservabilityDisabled(t *testing.T) {
	eco := newEco(t, 11, nil)
	led := telemetry.NewLedger()
	_, _, err := Run(context.Background(), Config{
		Crawl:  crawlConfig(eco, nil),
		Shards: 2,
		Dir:    t.TempDir(),
		Ledger: led,
	}, eco.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Events()) == 0 {
		t.Error("ledger empty; event timeline must not depend on telemetry")
	}
}
