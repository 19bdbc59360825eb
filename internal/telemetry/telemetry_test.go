package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", LatencyBuckets)
	f := r.Family("x", "k")
	if c != nil || g != nil || h != nil || f != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(0.5)
	h.ObserveDuration(time.Second)
	f.Add("a", 2)
	f.With("b").Inc()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	if got := f.Counts(); len(got) != 0 {
		t.Fatalf("nil family Counts = %v", got)
	}
	r.Adopt(NewFamily("y", "k"))
	r.PublishExpvar("nil-reg")
	s := r.Snapshot()
	if s.Counters != nil || s.Families != nil {
		t.Fatalf("nil registry snapshot must be empty")
	}
	if err := r.WriteJSON(io.Discard); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
}

// Disabled telemetry must add zero allocations on hot paths.
func TestDisabledPathAllocs(t *testing.T) {
	var c *Counter
	var h *Histogram
	var f *Family
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(1.5)
		f.Add("k", 1)
	}); n != 0 {
		t.Fatalf("disabled instruments allocated %v per op", n)
	}
}

// Enabled counters/histograms must also be allocation-free after the
// instrument exists (atomic adds only).
func TestEnabledHotPathAllocs(t *testing.T) {
	r := New()
	c := r.Counter("hot")
	h := r.Histogram("lat", LatencyBuckets)
	f := r.Family("fam", "k")
	f.Add("warm", 1) // pre-create so the fast path is the RLock hit
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(0.003)
		f.Add("warm", 1)
	}); n != 0 {
		t.Fatalf("enabled instruments allocated %v per op", n)
	}
}

func TestCounterGaugeFamily(t *testing.T) {
	r := New()
	c := r.Counter("visits")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("visits") != c {
		t.Fatalf("Counter must return the same instrument per name")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	f := r.Family("req", "vhost")
	f.Add("a.com", 2)
	f.Add("b.com", 1)
	f.With("a.com").Inc()
	want := map[string]int64{"a.com": 3, "b.com": 1}
	got := f.Counts()
	if len(got) != len(want) || got["a.com"] != 3 || got["b.com"] != 1 {
		t.Fatalf("family counts = %v, want %v", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 9} {
		h.Observe(v)
	}
	s := h.snapshot()
	// Inclusive upper bounds: ≤1: {0.5,1}, ≤2: {1.5,2}, ≤4: {3,4}, +Inf: {9}.
	wantCounts := []int64{2, 2, 2, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+4+9; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	h.ObserveDuration(3 * time.Second)
	if h.Count() != 8 {
		t.Fatalf("ObserveDuration not recorded")
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() *Registry {
		r := New()
		// Insert in different orders across the two registries.
		names := []string{"zeta", "alpha", "mid"}
		for _, n := range names {
			r.Counter(n).Add(int64(len(n)))
		}
		r.Gauge("g1").Set(2)
		r.Histogram("hops", HopBuckets).Observe(3)
		fam := r.Family("req", "vhost")
		fam.Add("b.com", 1)
		fam.Add("a.com", 2)
		return r
	}
	r1, r2 := build(), build()
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	var s Snapshot
	if err := json.Unmarshal(b1.Bytes(), &s); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if s.Counters["zeta"] != 4 || s.Families["req"]["a.com"] != 2 {
		t.Fatalf("snapshot content wrong: %+v", s)
	}
}

func TestAdoptFoldsExternalFamily(t *testing.T) {
	r := New()
	f := NewFamily("chaos_faults", "kind")
	f.Add("reset", 3)
	r.Adopt(f)
	s := r.Snapshot()
	if s.Families["chaos_faults"]["reset"] != 3 {
		t.Fatalf("adopted family missing from snapshot: %+v", s.Families)
	}
	f.Add("reset", 1) // live view, not a copy
	if r.Snapshot().Families["chaos_faults"]["reset"] != 4 {
		t.Fatalf("adopted family must stay live")
	}
}

func TestPublishExpvarAndDebugServer(t *testing.T) {
	r := New()
	r.Counter("published").Add(9)
	r.PublishExpvar("telemetry-test")
	// Republish with a different registry: must rebind, not panic.
	r2 := New()
	r2.Counter("published").Add(11)
	r2.PublishExpvar("telemetry-test")

	ds, err := ServeDebug("127.0.0.1:0", r2)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, `"published": 11`) {
		t.Fatalf("/metrics missing counter: %s", metrics)
	}
	vars := get("/debug/vars")
	if !strings.Contains(vars, "telemetry-test") {
		t.Fatalf("/debug/vars missing published registry")
	}
	if !strings.Contains(vars, `"published":11`) {
		t.Fatalf("expvar must serve the rebound registry: %s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("pprof index not served")
	}

	var nilDS *DebugServer
	if nilDS.Addr() != "" || nilDS.Close() != nil {
		t.Fatalf("nil DebugServer must be inert")
	}
}

func TestWriteSnapshotFile(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	path := t.TempDir() + "/snap.json"
	if err := r.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 1 {
		t.Fatalf("snapshot file content = %+v", s)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := New()
	c := r.Counter("n")
	h := r.Histogram("lat", LatencyBuckets)
	f := r.Family("fam", "k")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.01)
				f.Add("k1", 1)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if c.Value() != 8000 || h.Count() != 8000 || f.Counts()["k1"] != 8000 {
		t.Fatalf("lost updates: c=%d h=%d f=%d", c.Value(), h.Count(), f.Counts()["k1"])
	}
	if got, want := h.Sum(), 80.0; got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("histogram sum = %v, want ~%v", got, want)
	}
}

// sampleRegistry builds a populated registry whose snapshot exercises
// every instrument kind.
func sampleRegistry(k int) *Registry {
	reg := New()
	reg.Counter("crawler_polls").Add(int64(10 * (k + 1)))
	reg.Counter(fmt.Sprintf("only_shard_%d", k)).Inc()
	reg.Gauge("crawler_pump_workers").Set(int64(k + 2))
	h := reg.Histogram("poll_seconds", LatencyBuckets)
	for i := 0; i <= k; i++ {
		h.Observe(0.01 * float64(i+1))
	}
	reg.Family("http_requests", "host").Add("ads.example", int64(k+1))
	reg.Family("http_requests", "host").Add(fmt.Sprintf("shard%d.example", k), 1)
	return reg
}

// TestObservabilityPlaneNilSafety: the entry points a crawl calls
// beyond the instruments — the chain recorder and the ledger — must be
// free no-ops when tracing and the ledger are off.
func TestObservabilityPlaneNilSafety(t *testing.T) {
	var rec *ChainRecorder
	var led *Ledger
	if n := testing.AllocsPerRun(100, func() {
		rec.Event(time.Time{}, "visit", nil)
		led.Append(Event{Kind: "merge"})
		_ = led.Events()
	}); n != 0 {
		t.Errorf("disabled chain-recorder and ledger path allocates %v per run, want 0", n)
	}
}

// TestWriteSnapshotFileAtomic: the snapshot write must go through a
// temp file + rename — no partially written snapshot is ever visible
// and no temp file is left behind.
func TestWriteSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	reg := sampleRegistry(0)
	path := filepath.Join(dir, "metrics.json")
	if err := reg.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "metrics.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory after write = %v, want exactly [metrics.json]", names)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot file is not valid JSON: %v", err)
	}
	if snap.Counters["crawler_polls"] != 10 {
		t.Errorf("snapshot content wrong: %+v", snap.Counters)
	}
	// Write to a path whose temp file cannot be created: the error must
	// surface instead of silently truncating an existing file.
	if err := reg.WriteSnapshotFile(filepath.Join(dir, "missing", "metrics.json")); err == nil {
		t.Error("write into a missing directory succeeded; want error")
	}
}
