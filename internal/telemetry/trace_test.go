package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	id := tr.Start("c", "x", 0, nil)
	if id != 0 {
		t.Fatalf("nil tracer Start = %d, want 0", id)
	}
	tr.End(id)
	tr.EndAt(id, t0)
	tr.SetAttr(id, "k", "v")
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatalf("nil tracer must be empty")
	}
	if rec := NewChainRecorder(nil, "c"); rec != nil {
		t.Fatalf("NewChainRecorder(nil) must return nil")
	}
	var rec *ChainRecorder
	rec.Event(t0, "visit", nil) // must not panic
}

func TestTracerSpansAndOrder(t *testing.T) {
	now := t0
	tr := NewTracer(func() time.Time { return now })
	root := tr.Start("c1", "pipeline", 0, nil)
	now = now.Add(time.Second)
	child := tr.Start("c1", "featurize", root, map[string]string{"n": "5"})
	now = now.Add(2 * time.Second)
	tr.End(child)
	tr.End(root)
	tr.SetAttr(root, "stages", "1")

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("len = %d", len(spans))
	}
	if spans[0].ID != 1 || spans[1].ID != 2 || spans[1].Parent != root {
		t.Fatalf("ids/parents wrong: %+v", spans)
	}
	if spans[1].Duration() != 2*time.Second {
		t.Fatalf("child duration = %v", spans[1].Duration())
	}
	if spans[0].Duration() != 3*time.Second {
		t.Fatalf("root duration = %v", spans[0].Duration())
	}
	if spans[0].Attrs["stages"] != "1" || spans[1].Attrs["n"] != "5" {
		t.Fatalf("attrs wrong: %+v", spans)
	}
}

func TestTraceJSONLRoundtrip(t *testing.T) {
	tr := NewTracer(nil)
	a := tr.StartAt("c1", "visit", 0, map[string]string{"url": "http://a/"}, t0)
	tr.Point("c1", "sw_registered", a, map[string]string{"sw": "http://a/sw.js"}, t0.Add(time.Second))
	tr.EndAt(a, t0.Add(2*time.Second))

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestReadSpansSkipsBlankAndRejectsGarbage(t *testing.T) {
	got, err := ReadSpans(bytes.NewBufferString("\n{\"id\":1,\"name\":\"x\",\"start\":\"2020-04-01T00:00:00Z\",\"end\":\"2020-04-01T00:00:00Z\"}\n\n"))
	if err != nil || len(got) != 1 || got[0].Name != "x" {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := ReadSpans(bytes.NewBufferString("not json\n")); err == nil {
		t.Fatalf("garbage must error")
	}
}

// TestReadSpansRejects: ReadSpans holds trace files to the ledger's
// contract, so every corruption fails the read instead of yielding
// plausible spans.
func TestReadSpansRejects(t *testing.T) {
	span := func(id, parent int, name string) string {
		return fmt.Sprintf(`{"id":%d,"parent":%d,"name":%q,"start":"2020-04-01T00:00:00Z","end":"2020-04-01T00:00:00Z"}`+"\n", id, parent, name)
	}
	good := span(1, 0, "a") + span(2, 1, "b") + span(3, 1, "c")
	got, err := ReadSpans(strings.NewReader(good + "\n"))
	if err != nil || len(got) != 3 || got[2].Parent != 1 {
		t.Fatalf("valid trace with a blank line: %+v, %v", got, err)
	}
	empty, err := ReadSpans(strings.NewReader(`{"id":1,"name":"a","attrs":{}}` + "\n"))
	if err != nil || empty[0].Attrs != nil {
		t.Errorf(`"attrs":{} read as %#v, %v; want nil attrs`, empty, err)
	}
	for _, tc := range []struct{ name, in string }{
		{"gap", span(1, 0, "a") + span(3, 0, "b")},
		{"duplicate", span(1, 0, "a") + span(1, 0, "b")},
		{"reorder", span(2, 0, "a") + span(1, 0, "b")},
		{"not from one", span(0, 0, "a")},
		{"self parent", span(1, 0, "a") + span(2, 2, "b")},
		{"later parent", span(1, 2, "a") + span(2, 0, "b")},
		{"negative parent", span(1, -1, "a")},
		{"null", "null\n" + good},
		{"empty name", span(1, 0, "")},
		{"missing name", `{"id":1}` + "\n"},
		{"truncated final line", good + `{"id":4,"name":"d","attrs":{"k`},
		{"array line", good + "[4]\n"},
		{"number line", "1\n"},
		{"trailing garbage", `{"id":1,"name":"a"} x` + "\n"},
		{"bad time", `{"id":1,"name":"a","start":"yesterday"}` + "\n"},
	} {
		if got, err := ReadSpans(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted, read %+v", tc.name, got)
		}
	}
}

// TestWriteTraceFileAtomic: the trace file is written through a temp
// file and a rename, leaves no temp file, and reads back as the
// tracer's spans.
func TestWriteTraceFileAtomic(t *testing.T) {
	tr := NewTracer(nil)
	v := tr.StartAt("c1", "visit", 0, map[string]string{"url": "http://a/"}, t0)
	tr.Point("c1", "navigation", v, nil, t0)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	if err := tr.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "trace.jsonl" {
		t.Fatalf("directory after write holds %d entries, want exactly trace.jsonl", len(entries))
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.Spans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("trace file reads back as %+v, want %+v", got, want)
	}
	if err := tr.WriteTraceFile(filepath.Join(dir, "missing", "trace.jsonl")); err == nil {
		t.Error("write into a missing directory succeeded; want error")
	}
}

// TestChainRecorderLinksFullChain drives the recorder through a full
// WPN attack chain and checks the parent links reconstruct it.
func TestChainRecorderLinksFullChain(t *testing.T) {
	tr := NewTracer(nil)
	rec := NewChainRecorder(tr, "box-1")
	at := t0
	step := func(kind string, fields map[string]string) {
		at = at.Add(time.Second)
		rec.Event(at, kind, fields)
	}

	step("visit", map[string]string{"url": "http://pub.example/"})
	step("permission_granted", map[string]string{"origin": "http://pub.example"})
	step("sw_registered", map[string]string{"sw": "http://pub.example/sw.js", "token": "tok-1"})
	step("push_received", map[string]string{"sw": "http://pub.example/sw.js", "token": "tok-1"})
	step("notification_shown", map[string]string{"title": "You won"})
	step("notification_clicked", map[string]string{"title": "You won"})
	step("sw_request", map[string]string{"url": "http://track.example/c"})
	step("navigation", map[string]string{"url": "http://hop1.example/"})
	step("redirect", map[string]string{"to": "http://land.example/"})
	step("landing_page", map[string]string{"url": "http://land.example/"})

	spans := tr.Spans()
	if len(spans) != 10 {
		t.Fatalf("want one span per event, got %d", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	// Chain linkage: visit ← sw_registered ← push_received ←
	// notification_shown ← notification_clicked ← {sw_request,
	// navigation, redirect, landing_page}.
	if byName["permission_granted"].Parent != byName["visit"].ID {
		t.Fatalf("permission not parented to visit")
	}
	if byName["sw_registered"].Parent != byName["visit"].ID {
		t.Fatalf("sw_registered not parented to visit")
	}
	if byName["push_received"].Parent != byName["sw_registered"].ID {
		t.Fatalf("push not parented to sw registration")
	}
	if byName["notification_shown"].Parent != byName["push_received"].ID {
		t.Fatalf("shown not parented to push")
	}
	if byName["notification_clicked"].Parent != byName["notification_shown"].ID {
		t.Fatalf("clicked not parented to shown")
	}
	click := byName["notification_clicked"].ID
	for _, kind := range []string{"sw_request", "navigation", "redirect", "landing_page"} {
		if byName[kind].Parent != click {
			t.Fatalf("%s not parented to click (got %d)", kind, byName[kind].Parent)
		}
	}
	// landing_page must close the click + chain spans at the landing time.
	land := byName["landing_page"].Start
	if !byName["notification_clicked"].End.Equal(land) || !byName["push_received"].End.Equal(land) {
		t.Fatalf("click/chain spans not closed at landing")
	}
	// Span order must equal event order.
	for i, sp := range spans {
		if sp.ID != SpanID(i+1) {
			t.Fatalf("span IDs must be emission-ordered")
		}
		if sp.Container != "box-1" {
			t.Fatalf("container lost on %s", sp.Name)
		}
	}
}

// Pre-click SW fetches parent to the push span; navigation outside a
// click parents to the visit; a fresh visit closes the previous one.
func TestChainRecorderFallbackParents(t *testing.T) {
	tr := NewTracer(nil)
	rec := NewChainRecorder(tr, "c")
	rec.Event(t0, "visit", map[string]string{"url": "http://a/"})
	rec.Event(t0.Add(1*time.Second), "navigation", map[string]string{"url": "http://a/"})
	rec.Event(t0.Add(2*time.Second), "push_received", map[string]string{"sw": "unknown"})
	rec.Event(t0.Add(3*time.Second), "sw_request", map[string]string{"url": "http://t/"})
	rec.Event(t0.Add(4*time.Second), "visit", map[string]string{"url": "http://b/"})

	spans := tr.Spans()
	if spans[1].Parent != spans[0].ID {
		t.Fatalf("pre-click navigation must parent to visit")
	}
	if spans[2].Parent != 0 {
		t.Fatalf("push with unknown SW must be a root")
	}
	if spans[3].Parent != spans[2].ID {
		t.Fatalf("pre-click sw_request must parent to push")
	}
	if !spans[0].End.Equal(t0.Add(4 * time.Second)) {
		t.Fatalf("new visit must close the previous visit span")
	}
}
