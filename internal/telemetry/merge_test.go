package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// shardRegistry builds a populated "shard" registry whose snapshot
// exercises every instrument kind.
func shardRegistry(k int) *Registry {
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

// TestMergeAbsorbEquivalence pins the contract the fleet coordinator
// relies on: folding shard snapshots into a live registry (Absorb) and
// folding them into the registry's snapshot (Merge) produce the same
// final snapshot, byte for byte.
func TestMergeAbsorbEquivalence(t *testing.T) {
	build := func() *Registry {
		main := New()
		main.Counter("fleet_worker_kills").Add(3)
		main.Gauge("fleet_shards").Set(4)
		main.Histogram("fleet_heartbeat_seconds", LatencyBuckets).Observe(0.004)
		main.Family("fleet_events", "kind").Add("restart", 2)
		return main
	}
	snaps := []Snapshot{shardRegistry(0).Snapshot(), shardRegistry(1).Snapshot(), shardRegistry(2).Snapshot()}

	absorbed := build()
	merged := build().Snapshot()
	for k, s := range snaps {
		label := fmt.Sprintf("shard-%d", k)
		absorbed.Absorb(label, s)
		merged.Merge(label, s)
	}

	got, err := json.MarshalIndent(absorbed.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("Absorb and Merge disagree:\nabsorb: %s\nmerge:  %s", got, want)
	}

	// Spot-check the fold semantics on the merged view.
	if merged.Counters["crawler_polls"] != 10+20+30 {
		t.Errorf("counters did not sum: crawler_polls = %d", merged.Counters["crawler_polls"])
	}
	fam := merged.Families["crawler_pump_workers"]
	if fam["shard-0"] != 2 || fam["shard-1"] != 3 || fam["shard-2"] != 4 {
		t.Errorf("gauges did not become per-shard family samples: %v", fam)
	}
	hs := merged.Histograms["poll_seconds"]
	if hs.Count != 1+2+3 {
		t.Errorf("histogram counts did not merge: %d", hs.Count)
	}
	if merged.Families["http_requests"]["ads.example"] != 1+2+3 {
		t.Errorf("family labels did not sum: %v", merged.Families["http_requests"])
	}
}

// TestMergeHistogramBoundsMismatch: incompatible bucket layouts must
// never mix; the shard's histogram survives under "<name>/<label>".
func TestMergeHistogramBoundsMismatch(t *testing.T) {
	a := New()
	a.Histogram("latency", LatencyBuckets).Observe(0.5)
	b := New()
	b.Histogram("latency", SizeBuckets).Observe(100)

	s := a.Snapshot()
	s.Merge("shard-1", b.Snapshot())
	if s.Histograms["latency"].Count != 1 {
		t.Errorf("existing histogram was polluted: %+v", s.Histograms["latency"])
	}
	if s.Histograms["latency/shard-1"].Count != 1 {
		t.Errorf("mismatched histogram not preserved under suffixed key: %v", s.Histograms)
	}

	a2 := New()
	a2.Histogram("latency", LatencyBuckets).Observe(0.5)
	a2.Absorb("shard-1", b.Snapshot())
	got := a2.Snapshot()
	if got.Histograms["latency"].Count != 1 || got.Histograms["latency/shard-1"].Count != 1 {
		t.Errorf("Absorb bounds-mismatch handling diverges from Merge: %v", got.Histograms)
	}
}

// TestSnapshotClone: cloned snapshots must not alias the source maps.
func TestSnapshotClone(t *testing.T) {
	reg := shardRegistry(1)
	src := reg.Snapshot()
	dup := src.Clone()
	dup.Counters["crawler_polls"] = 999
	dup.Families["http_requests"]["ads.example"] = 999
	dup.Histograms["poll_seconds"].Counts[0] = 999
	if src.Counters["crawler_polls"] == 999 ||
		src.Families["http_requests"]["ads.example"] == 999 ||
		src.Histograms["poll_seconds"].Counts[0] == 999 {
		t.Error("Clone aliases the source snapshot")
	}
}

// span builder for stitch tests.
func sp(id, parent SpanID, seg int64, name string) Span {
	at := time.Unix(1600000000+int64(id), 0).UTC()
	return Span{ID: id, Parent: parent, Name: name, Start: at, End: at, Seg: seg}
}

// TestStitchSpansInterleaves: spans from two shard streams reassemble
// in coordinator phase order (segment, then shard, then local order),
// renumbered from 1 with parents remapped per stream.
func TestStitchSpansInterleaves(t *testing.T) {
	s0 := []Span{sp(1, 0, 1, "visit-a"), sp(2, 1, 3, "push-a")}
	s1 := []Span{sp(1, 0, 1, "visit-b"), sp(2, 1, 2, "push-b")}
	out := StitchSpans([][]Span{s0, s1})
	names := make([]string, len(out))
	for i, s := range out {
		names[i] = s.Name
		if s.ID != SpanID(i+1) {
			t.Errorf("span %d: ID = %d, want %d", i, s.ID, i+1)
		}
		if s.Seg != 0 {
			t.Errorf("span %q: Seg = %d, want 0 after stitch", s.Name, s.Seg)
		}
	}
	want := []string{"visit-a", "visit-b", "push-b", "push-a"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("stitch order = %v, want %v", names, want)
	}
	// push-a's parent is visit-a (new ID 1); push-b's is visit-b (new 2).
	if out[3].Parent != 1 {
		t.Errorf("push-a parent = %d, want 1", out[3].Parent)
	}
	if out[2].Parent != 2 {
		t.Errorf("push-b parent = %d, want 2", out[2].Parent)
	}
}

// TestStitchSpansMissingParent: a parent that never appears in the
// stream (chain state dropped at adoption) degrades to a root instead
// of pointing at an unrelated span.
func TestStitchSpansMissingParent(t *testing.T) {
	out := StitchSpans([][]Span{{sp(7, 4, 1, "orphan")}})
	if len(out) != 1 || out[0].Parent != 0 {
		t.Fatalf("orphan span parent = %+v, want root", out)
	}
}

// TestStitchSpansSingleStreamIdentity: at shards=1 the stitch is the
// identity — same order, same IDs, same parents — which is the lemma
// behind the fleet trace byte-parity test.
func TestStitchSpansSingleStreamIdentity(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetSegment(1)
	a := tr.Start("c1", "visit", 0, nil)
	tr.SetSegment(2)
	b := tr.Start("c1", "push", a, nil)
	tr.SetSegment(3)
	tr.Start("c1", "click", b, map[string]string{"url": "https://x"})

	in := tr.Spans()
	out := StitchSpans([][]Span{in})
	if len(out) != len(in) {
		t.Fatalf("stitched %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		want := in[i]
		want.Seg = 0
		if !reflect.DeepEqual(out[i], want) {
			t.Errorf("span %d changed under identity stitch:\ngot  %+v\nwant %+v", i, out[i], want)
		}
	}
}

// TestTracerAppendRebases: appended spans slot in after the tracer's
// existing spans with IDs and parent links shifted together.
func TestTracerAppendRebases(t *testing.T) {
	tr := NewTracer(nil)
	tr.Start("pre", "existing", 0, nil)
	tr.Append([]Span{sp(1, 0, 0, "root"), sp(2, 1, 0, "child")})
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].ID != 2 || spans[1].Parent != 0 || spans[1].Name != "root" {
		t.Errorf("appended root misplaced: %+v", spans[1])
	}
	if spans[2].ID != 3 || spans[2].Parent != 2 || spans[2].Name != "child" {
		t.Errorf("appended child not re-parented: %+v", spans[2])
	}
}

// TestObservabilityPlaneNilSafety: every fleet-plane entry point must
// be a free no-op when telemetry is disabled, the ledger included.
func TestObservabilityPlaneNilSafety(t *testing.T) {
	var reg *Registry
	var tr *Tracer
	var rec *ChainRecorder
	var led *Ledger
	snap := shardRegistry(0).Snapshot()
	if n := testing.AllocsPerRun(100, func() {
		reg.Absorb("shard-0", snap)
		tr.SetSegment(7)
		tr.Append(nil)
		st := rec.Export()
		rec.Restore(st)
		led.Append(Event{Kind: "merge"})
		_ = led.Events()
	}); n != 0 {
		t.Errorf("disabled fleet-plane path allocates %v per run, want 0", n)
	}
	if got := rec.Export(); got != nil {
		t.Errorf("nil recorder Export = %+v, want nil", got)
	}
}

// TestChainStateRoundTrip: Export/Restore preserves linkage so a
// restored recorder keeps extending the same chains.
func TestChainStateRoundTrip(t *testing.T) {
	tr := NewTracer(nil)
	rec := NewChainRecorder(tr, "c1")
	at := time.Unix(1600000000, 0).UTC()
	rec.Event(at, "visit", map[string]string{"url": "https://seed"})
	rec.Event(at, "sw_registered", map[string]string{"sw": "https://seed/sw.js"})
	rec.Event(at, "push_received", map[string]string{"sw": "https://seed/sw.js"})
	rec.Event(at, "notification_shown", map[string]string{"title": "You won"})

	st := rec.Export()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ChainState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	fresh := NewChainRecorder(tr, "c1")
	fresh.Restore(&back)
	fresh.Event(at.Add(time.Minute), "notification_clicked", map[string]string{"title": "You won"})

	spans := tr.Spans()
	click := spans[len(spans)-1]
	if click.Name != "notification_clicked" || click.Parent == 0 {
		t.Fatalf("restored recorder lost chain linkage: %+v", click)
	}
	if parent := spans[click.Parent-1]; parent.Name != "notification_shown" {
		t.Errorf("click parented under %q, want notification_shown", parent.Name)
	}
}

// TestConcurrentChainRecorders: many containers' recorders share one
// tracer, as in a real crawl's parallel pump. The test must be
// race-clean under -race, and after sorting by ID each container's
// span subsequence must equal its serial event order with intact
// parent links.
func TestConcurrentChainRecorders(t *testing.T) {
	tr := NewTracer(nil)
	const containers = 8
	const rounds = 20
	base := time.Unix(1600000000, 0).UTC()

	var wg sync.WaitGroup
	for c := 0; c < containers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := NewChainRecorder(tr, fmt.Sprintf("c%d", c))
			at := base
			rec.Event(at, "visit", map[string]string{"url": fmt.Sprintf("https://seed%d", c)})
			rec.Event(at, "sw_registered", map[string]string{"sw": "https://s/sw.js"})
			for i := 0; i < rounds; i++ {
				at = at.Add(time.Minute)
				title := fmt.Sprintf("n%d", i)
				rec.Event(at, "push_received", map[string]string{"sw": "https://s/sw.js"})
				rec.Event(at, "notification_shown", map[string]string{"title": title})
				rec.Event(at, "notification_clicked", map[string]string{"title": title})
				rec.Event(at, "landing_page", map[string]string{"url": "https://land"})
			}
		}(c)
	}
	wg.Wait()

	spans := tr.Spans()
	if want := containers * (2 + 4*rounds); len(spans) != want {
		t.Fatalf("got %d spans, want %d", len(spans), want)
	}
	// Spans() returns ID order already; verify per-container sequences.
	byContainer := make(map[string][]Span)
	for _, s := range spans {
		byContainer[s.Container] = append(byContainer[s.Container], s)
	}
	for c, seq := range byContainer {
		if seq[0].Name != "visit" || seq[1].Name != "sw_registered" {
			t.Fatalf("%s: sequence starts %q,%q", c, seq[0].Name, seq[1].Name)
		}
		for i := 2; i < len(seq); i += 4 {
			names := []string{seq[i].Name, seq[i+1].Name, seq[i+2].Name, seq[i+3].Name}
			if !reflect.DeepEqual(names, []string{"push_received", "notification_shown", "notification_clicked", "landing_page"}) {
				t.Fatalf("%s: round at %d is %v", c, i, names)
			}
			// shown → push, clicked → shown, landing → clicked: parents
			// stay within the container even under interleaving.
			if seq[i+1].Parent != seq[i].ID || seq[i+2].Parent != seq[i+1].ID || seq[i+3].Parent != seq[i+2].ID {
				t.Fatalf("%s: chain links broken at %d: %+v", c, i, seq[i:i+4])
			}
		}
	}
}

// TestWriteSnapshotFileAtomic: the snapshot write must go through a
// temp file + rename — no partially written snapshot is ever visible
// and no temp file is left behind.
func TestWriteSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	reg := shardRegistry(0)
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
