package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/chaos"
	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/webeco"
)

// newEco builds the standard test ecosystem at the standard test scale.
func newEco(t *testing.T, seed int64, prof *chaos.Profile) *webeco.Ecosystem {
	t.Helper()
	eco, err := webeco.New(webeco.Config{Seed: seed, Scale: 0.002, Chaos: prof})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eco.Close() })
	return eco
}

// crawlConfig wires a crawl config to an ecosystem, mirroring the
// crawler package's test setup.
func crawlConfig(eco *webeco.Ecosystem, mod func(*crawler.Config)) crawler.Config {
	cfg := crawler.Config{
		Clock:            eco.Clock,
		NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
		Driver:           eco,
		Pending:          eco.Push,
		Device:           browser.Desktop,
		CollectionWindow: 7 * 24 * time.Hour,
		CrashPlan:        eco.CrashPlan(),
		FaultCounts:      eco.FaultCounts,
	}
	if mod != nil {
		mod(&cfg)
	}
	return cfg
}

// chaosProfile is the acceptance fault mix plus worker kills: the fleet
// must shrug off connection resets, 503 bursts, a push outage,
// container crashes AND whole shard workers dying.
func chaosProfile(workerCrashes float64) *chaos.Profile {
	p, ok := chaos.Preset("acceptance")
	if !ok {
		panic("acceptance preset missing")
	}
	p.Seed = 5
	p.WorkerCrashFraction = workerCrashes
	return &p
}

// baselineRun is the ground truth: the reference loop driving one
// ShardWorker directly.
func baselineRun(t *testing.T, seed int64, prof *chaos.Profile) []byte {
	t.Helper()
	eco := newEco(t, seed, prof)
	res := referenceCrawl(t, crawlConfig(eco, nil), eco.SeedURLs())
	if len(res.Records) == 0 {
		t.Fatal("baseline collected no records; parity test is vacuous")
	}
	return marshal(t, res)
}

func fleetRun(t *testing.T, seed int64, prof *chaos.Profile, shards int) ([]byte, *Report) {
	t.Helper()
	eco := newEco(t, seed, prof)
	res, rep, err := Run(context.Background(), Config{
		Crawl:           crawlConfig(eco, nil),
		Shards:          shards,
		WorkerCrashPlan: eco.WorkerCrashPlan(),
		Dir:             t.TempDir(),
	}, eco.SeedURLs())
	if err != nil {
		t.Fatalf("fleet run (shards=%d): %v", shards, err)
	}
	return marshal(t, res), rep
}

func marshal(t *testing.T, res *crawler.Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetParityMatrix is the fleet's contract: a fleet run at any
// shard count, with any kill schedule, converges to the reference
// loop's result — byte-identical records, URL lists, and Degradation
// report.
func TestFleetParityMatrix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		prof   func() *chaos.Profile
		shards []int
	}{
		// Kill-free: sharding alone must not move a byte.
		{"seed11", 11, func() *chaos.Profile { return nil }, []int{1, 2, 4}},
		// Full chaos plus worker kills: each worker sees ~28 heartbeat
		// cycles at the 6h default over 7 days, so a 5% kill fraction
		// exercises restarts (and, depending on the draw, stealing).
		{"seed11/chaos", 11, func() *chaos.Profile { return chaosProfile(0.05) }, []int{1, 2, 4}},
		{"seed23/chaos", 23, func() *chaos.Profile { return chaosProfile(0.05) }, []int{3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := baselineRun(t, tc.seed, tc.prof())
			for _, shards := range tc.shards {
				got, rep := fleetRun(t, tc.seed, tc.prof(), shards)
				if !bytes.Equal(want, got) {
					t.Errorf("shards=%d diverges from the reference loop:\n%s", shards, resultDiff(want, got))
				}
				t.Logf("shards=%d kills=%d restarts=%d lost=%d stolen=%d saves=%d",
					shards, rep.Kills, rep.Restarts, rep.WorkersLost, rep.ContainersStolen, rep.StateSaves)
			}
		})
	}
}

// TestFleetRestartsUnderKills pins that the chaos kill plan actually
// bites in the matrix scenario — otherwise the parity cases above would
// silently test nothing about the control plane.
func TestFleetRestartsUnderKills(t *testing.T) {
	_, rep := fleetRun(t, 11, chaosProfile(0.05), 4)
	if rep.Kills == 0 {
		t.Fatal("no worker kills under workercrashes=0.05; control plane untested")
	}
	if rep.Restarts == 0 {
		t.Error("kills happened but no restarts")
	}
	if rep.StateSaves == 0 {
		t.Error("durable fleet run wrote no shard state")
	}
	if rep.Heartbeats == 0 {
		t.Error("no heartbeats recorded")
	}
}

// TestFleetWorkStealing kills one worker with no restart budget: its
// containers must be adopted by a live shard and the merged result must
// still match the reference loop byte for byte.
func TestFleetWorkStealing(t *testing.T) {
	want := baselineRun(t, 11, nil)

	eco := newEco(t, 11, nil)
	res, rep, err := Run(context.Background(), Config{
		Crawl:       crawlConfig(eco, nil),
		Shards:      4,
		MaxRestarts: -1, // never restart: first kill orphans the shard
		Dir:         t.TempDir(),
		WorkerCrashPlan: func(workerID string, cycle int) bool {
			return strings.HasPrefix(workerID, "shard-1#") && cycle == 2
		},
	}, eco.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1 (report: %+v)", rep.WorkersLost, rep)
	}
	if rep.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0 with MaxRestarts=-1", rep.Restarts)
	}
	if rep.ContainersStolen == 0 {
		t.Error("lost worker's containers were not stolen")
	}
	if !rep.Workers[1].Lost {
		t.Errorf("worker 1 not marked lost: %+v", rep.Workers)
	}
	adopted := 0
	for _, w := range rep.Workers {
		adopted += w.Adopted
	}
	if adopted != rep.ContainersStolen {
		t.Errorf("adopted %d != stolen %d", adopted, rep.ContainersStolen)
	}
	if got := marshal(t, res); !bytes.Equal(want, got) {
		t.Errorf("result with work stealing diverges from baseline:\n%s", resultDiff(want, got))
	}
}

// TestOneShardKillEveryHeartbeat is the kill matrix of the default
// one-shard path: the lone worker dies at every hourly heartbeat and is
// restored from its shard state each time — past its restart budget,
// because the last live worker has no one to hand its containers to.
// With and without the acceptance faults, the Result must stay
// byte-identical to the kill-free run's and every counter outside the
// fleet's own control plane must match.
func TestOneShardKillEveryHeartbeat(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof func() *chaos.Profile
	}{
		{"clean", func() *chaos.Profile { return nil }},
		{"faults", func() *chaos.Profile { return chaosProfile(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(plan func(string, int) bool) ([]byte, map[string]int64, *Report) {
				reg := telemetry.New()
				eco, err := webeco.New(webeco.Config{Seed: 11, Scale: 0.002, Chaos: tc.prof(), Telemetry: reg})
				if err != nil {
					t.Fatal(err)
				}
				defer eco.Close()
				res, rep, err := Run(context.Background(), Config{
					Crawl:           crawlConfig(eco, func(c *crawler.Config) { c.Metrics = reg }),
					Heartbeat:       time.Hour,
					Dir:             t.TempDir(),
					WorkerCrashPlan: plan,
				}, eco.SeedURLs())
				if err != nil {
					t.Fatal(err)
				}
				return marshal(t, res), reg.Snapshot().Counters, rep
			}
			want, wantC, _ := run(nil)
			got, gotC, rep := run(func(string, int) bool { return true })
			if rep.Kills < 100 || rep.Restarts != rep.Kills || rep.WorkersLost != 0 {
				t.Fatalf("kills=%d restarts=%d lost=%d; want every hourly heartbeat killed and restarted",
					rep.Kills, rep.Restarts, rep.WorkersLost)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("result under kills diverges from the kill-free run:\n%s", resultDiff(want, got))
			}
			for k := range mergeKeys(wantC, gotC) {
				if !strings.HasPrefix(k, "fleet_") && wantC[k] != gotC[k] {
					t.Errorf("counter %s = %d under kills, %d kill-free", k, gotC[k], wantC[k])
				}
			}
			t.Logf("kills=%d restarts=%d saves=%d", rep.Kills, rep.Restarts, rep.StateSaves)
		})
	}
}

// mergeKeys returns the union of two counter maps' keys.
func mergeKeys(a, b map[string]int64) map[string]bool {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}

// TestFleetTelemetry pins the fleet gauge/counter key set and that the
// control-plane instruments move under kills.
func TestFleetTelemetry(t *testing.T) {
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
	if got := reg.Gauge("fleet_shards").Value(); got != 4 {
		t.Errorf("fleet_shards = %d, want 4", got)
	}
	live := reg.Gauge("fleet_live_shards").Value()
	if want := int64(4 - rep.WorkersLost); live != want {
		t.Errorf("fleet_live_shards = %d, want %d", live, want)
	}
	for name, want := range map[string]int64{
		"fleet_heartbeats":        int64(rep.Heartbeats),
		"fleet_worker_kills":      int64(rep.Kills),
		"fleet_worker_restarts":   int64(rep.Restarts),
		"fleet_workers_lost":      int64(rep.WorkersLost),
		"fleet_containers_stolen": int64(rep.ContainersStolen),
		"fleet_shard_state_saves": int64(rep.StateSaves),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d (report: %+v)", name, got, want, rep)
		}
	}
	if hb := reg.Histogram("fleet_heartbeat_seconds", telemetry.LatencyBuckets); hb.Count() != int64(rep.Heartbeats) {
		t.Errorf("fleet_heartbeat_seconds count = %d, want %d", hb.Count(), rep.Heartbeats)
	}
	if reg.Counter("crawler_records_emitted").Value() == 0 {
		t.Error("coordinator minted records but crawler_records_emitted is 0")
	}
}

// resultDiff names where two marshalled crawler.Results diverge: the
// first record that differs, by index and ID, with both records, or,
// when every record matches, the first top-level field that differs.
func resultDiff(a, b []byte) string {
	var ra, rb crawler.Result
	if err := json.Unmarshal(a, &ra); err != nil {
		return fmt.Sprintf("first result does not decode: %v", err)
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		return fmt.Sprintf("second result does not decode: %v", err)
	}
	for i := 0; i < len(ra.Records) && i < len(rb.Records); i++ {
		ja, _ := json.Marshal(ra.Records[i])
		jb, _ := json.Marshal(rb.Records[i])
		if !bytes.Equal(ja, jb) {
			return fmt.Sprintf("first divergent record at index %d (id %d vs %d)\n<<< %s\n>>> %s",
				i, ra.Records[i].ID, rb.Records[i].ID, ja, jb)
		}
	}
	if len(ra.Records) != len(rb.Records) {
		return fmt.Sprintf("one record list is a prefix of the other (%d vs %d records)", len(ra.Records), len(rb.Records))
	}
	va, vb := reflect.ValueOf(ra), reflect.ValueOf(rb)
	for i := 0; i < va.NumField(); i++ {
		ja, _ := json.Marshal(va.Field(i).Interface())
		jb, _ := json.Marshal(vb.Field(i).Interface())
		if !bytes.Equal(ja, jb) {
			return fmt.Sprintf("records match; first divergent field %s\n<<< %s\n>>> %s", va.Type().Field(i).Name, ja, jb)
		}
	}
	return "results are identical"
}

// TestResultDiffNamesRecord: resultDiff points at the first divergent
// record and shows both sides, or at the first divergent field when the
// records match.
func TestResultDiffNamesRecord(t *testing.T) {
	result := func(containers int, titles ...string) []byte {
		res := &crawler.Result{Containers: containers}
		for i, title := range titles {
			res.Records = append(res.Records, &crawler.WPNRecord{ID: i, Title: title})
		}
		return marshal(t, res)
	}
	got := resultDiff(result(1, "a", "b", "c", "d"), result(1, "a", "b", "x", "d"))
	if !strings.Contains(got, "index 2 (id 2 vs 2)") || !strings.Contains(got, `"title":"c"`) || !strings.Contains(got, `"title":"x"`) {
		t.Errorf("diff of results diverging at record 2 = %q", got)
	}
	if got := resultDiff(result(1, "a"), result(1, "a", "b")); !strings.Contains(got, "prefix") {
		t.Errorf("diff of a result and its extension = %q", got)
	}
	if got := resultDiff(result(1, "a"), result(2, "a")); !strings.Contains(got, "field Containers") {
		t.Errorf("diff of results differing in Containers = %q", got)
	}
}

// firstDiff renders the context around the first diverging byte.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hi := i-120, i+120
			if lo < 0 {
				lo = 0
			}
			if hi > n {
				hi = n
			}
			return fmt.Sprintf("first diff at byte %d\n<<< %s\n>>> %s", i, a[lo:hi], b[lo:hi])
		}
	}
	return "one output is a prefix of the other"
}
