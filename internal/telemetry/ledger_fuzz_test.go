package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/core"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/webeco"
)

// studyFiles returns the JSONL ledger and trace of a small real run: a
// desktop crawl under the acceptance faults, then a blocked mine.
func studyFiles(f *testing.F) (ledger, trace []byte) {
	f.Helper()
	prof, err := chaos.ParseProfile("acceptance")
	if err != nil {
		f.Fatal(err)
	}
	led := telemetry.NewLedger()
	tr := telemetry.NewTracer(nil)
	s, err := core.RunStudy(core.StudyConfig{
		Eco:              webeco.Config{Seed: 11, Scale: 0.002, Chaos: prof},
		CollectionWindow: 3 * 24 * time.Hour,
		SkipMobile:       true,
		Pipeline:         core.PipelineOptions{Cluster: core.ClusterOptions{Blocked: true}},
		Ledger:           led,
		Tracer:           tr,
	})
	if err != nil {
		f.Fatal(err)
	}
	s.Close()
	var lb, tb bytes.Buffer
	if err := telemetry.WriteLedger(&lb, led.Events()); err != nil {
		f.Fatal(err)
	}
	if err := tr.WriteJSONL(&tb); err != nil {
		f.Fatal(err)
	}
	return lb.Bytes(), tb.Bytes()
}

// FuzzReadLedger: ReadLedger either rejects its input or returns events
// that survive a write-back and re-read unchanged. It never panics.
func FuzzReadLedger(f *testing.F) {
	seed, _ := studyFiles(f)
	events, err := telemetry.ReadLedger(bytes.NewReader(seed))
	if err != nil {
		f.Fatalf("real ledger rejected: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"shard_started", "merge", "stage_begin", "block_clustered", "cut_chosen"} {
		if !kinds[k] {
			f.Fatalf("real ledger has no %s event; the seed does not cover both planes", k)
		}
	}
	lines := bytes.SplitAfter(seed, []byte("\n"))
	gap := bytes.Join(append(lines[:1:1], lines[2:]...), nil) // seq 1 dropped
	if _, err := telemetry.ReadLedger(bytes.NewReader(gap)); err == nil {
		f.Fatal("seq-gap twin of the real ledger accepted")
	}

	f.Add(seed)
	f.Add(gap)
	f.Add([]byte("null\n"))
	f.Add([]byte("\n\n"))
	f.Add(append([]byte("\n"), lines[0]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := telemetry.ReadLedger(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := telemetry.WriteLedger(&buf, events); err != nil {
			t.Fatalf("accepted events do not write back: %v", err)
		}
		again, err := telemetry.ReadLedger(&buf)
		if err != nil {
			t.Fatalf("written-back ledger rejected: %v\n%s", err, buf.Bytes())
		}
		if len(again) != len(events) {
			t.Fatalf("re-read %d events, read %d", len(again), len(events))
		}
		for i, a := range events {
			b := again[i]
			if a.Seq != b.Seq || a.Kind != b.Kind || !a.Time.Equal(b.Time) || !reflect.DeepEqual(a.Attrs, b.Attrs) {
				t.Fatalf("event %d changed across write-back: %+v → %+v", i, a, b)
			}
		}
	})
}

// FuzzReadSpans: ReadSpans either rejects its input or returns spans
// that survive a write-back and re-read unchanged, and Chains never
// panics on them.
func FuzzReadSpans(f *testing.F) {
	_, seed := studyFiles(f)
	spans, err := telemetry.ReadSpans(bytes.NewReader(seed))
	if err != nil {
		f.Fatalf("real trace rejected: %v", err)
	}
	clicked := 0
	for _, c := range telemetry.Chains(spans) {
		if c.Clicked && c.Token != "" {
			clicked++
		}
	}
	if clicked == 0 {
		f.Fatal("real trace rebuilds no clicked chain; the seed does not cover the replay")
	}
	lines := bytes.SplitAfter(seed, []byte("\n"))
	gap := bytes.Join(append(lines[:1:1], lines[2:]...), nil) // id 2 dropped
	if _, err := telemetry.ReadSpans(bytes.NewReader(gap)); err == nil {
		f.Fatal("id-gap twin of the real trace accepted")
	}

	f.Add(seed)
	f.Add(gap)
	f.Add([]byte("null\n"))
	f.Add([]byte("\n\n"))
	f.Add(append([]byte("\n"), lines[0]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := telemetry.ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		telemetry.Chains(spans)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				t.Fatalf("accepted spans do not write back: %v", err)
			}
		}
		again, err := telemetry.ReadSpans(&buf)
		if err != nil {
			t.Fatalf("written-back trace rejected: %v\n%s", err, buf.Bytes())
		}
		if len(again) != len(spans) {
			t.Fatalf("re-read %d spans, read %d", len(again), len(spans))
		}
		for i, a := range spans {
			b := again[i]
			if a.ID != b.ID || a.Parent != b.Parent || a.Container != b.Container || a.Name != b.Name ||
				!a.Start.Equal(b.Start) || !a.End.Equal(b.End) || !reflect.DeepEqual(a.Attrs, b.Attrs) {
				t.Fatalf("span %d changed across write-back: %+v → %+v", i, a, b)
			}
		}
	})
}
