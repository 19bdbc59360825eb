package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestLedgerRoundTrip pins Write/Read symmetry for both event shapes a
// run ledger holds: a timed fleet event and an untimed mining event.
func TestLedgerRoundTrip(t *testing.T) {
	at := time.Date(2020, 3, 1, 6, 0, 0, 0, time.UTC)
	led := NewLedger()
	led.Append(Event{Seq: 42, Time: at, Kind: "kill_detected", Attrs: map[string]string{"device": "desktop", "shard": "3"}})
	led.Append(Event{Kind: "cut_chosen", Attrs: map[string]string{"height": "0.25", "k": "4"}})
	events := led.Events()
	if events[0].Seq != 0 || events[1].Seq != 1 {
		t.Fatalf("Append must number events from 0 in order: %+v", events)
	}

	var buf bytes.Buffer
	if err := WriteLedger(&buf, events); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"time":"2020-03-01T06:00:00Z","kind":"kill_detected","attrs":{"device":"desktop","shard":"3"}}
{"seq":1,"kind":"cut_chosen","attrs":{"height":"0.25","k":"4"}}
`
	if buf.String() != want {
		t.Errorf("JSONL form:\n%s\nwant:\n%s", buf.String(), want)
	}
	got, err := ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip read %+v, wrote %+v", got, events)
	}

	var nilLed *Ledger
	nilLed.Append(Event{Kind: "x"})
	if nilLed.Events() != nil {
		t.Error("nil ledger recorded an event")
	}
}

// TestReadLedgerRejects: every corruption of a ledger fails the read
// instead of yielding plausible events.
func TestReadLedgerRejects(t *testing.T) {
	ev := func(seq int, kind string) string {
		return `{"seq":` + strconv.Itoa(seq) + `,"kind":"` + kind + `"}` + "\n"
	}
	good := ev(0, "a") + ev(1, "b") + ev(2, "c")
	if _, err := ReadLedger(strings.NewReader(good + "\n")); err != nil {
		t.Fatalf("valid ledger with a blank line rejected: %v", err)
	}
	for _, tc := range []struct{ name, in string }{
		{"gap", ev(0, "a") + ev(1, "b") + ev(3, "c")},
		{"duplicate", ev(0, "a") + ev(1, "b") + ev(1, "c")},
		{"reorder", ev(0, "a") + ev(2, "b") + ev(1, "c")},
		{"not from zero", ev(1, "a") + ev(2, "b")},
		{"null", "null\n" + good},
		{"null after events", good + "null\n"},
		{"empty kind", ev(0, "") + ev(1, "b")},
		{"missing kind", `{"seq":0}` + "\n"},
		{"truncated final line", good + `{"seq":3,"kind":"d","attrs":{"k`},
		{"array line", good + "[3]\n"},
		{"string line", good + `"seq"` + "\n"},
		{"number line", "0\n"},
		{"trailing garbage", `{"seq":0,"kind":"a"} x` + "\n"},
		{"bad time", `{"seq":0,"time":"yesterday","kind":"a"}` + "\n"},
	} {
		if got, err := ReadLedger(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted, read %+v", tc.name, got)
		}
	}
}

// TestStatusUnpublished: a registered publisher that has not published
// yet leaves its endpoint answering {"active": false}; the first
// Publish activates it, and a later registration under the same name
// replaces it.
func TestStatusUnpublished(t *testing.T) {
	type status struct {
		Stage string `json:"stage"`
	}
	pub := NewPublisher[status]("fleet")
	ds, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	get := func() string {
		t.Helper()
		resp, err := http.Get("http://" + ds.Addr() + "/fleetz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if got := get(); strings.TrimSpace(got) != `{"active": false}` {
		t.Errorf("unpublished /fleetz = %q, want {\"active\": false}", got)
	}
	if Status("fleet") != nil {
		t.Error("Status of an unpublished publisher must be untyped nil")
	}

	pub.Publish(&status{Stage: "crawl"})
	var payload struct {
		Active bool    `json:"active"`
		Fleet  *status `json:"fleet"`
	}
	if err := json.Unmarshal([]byte(get()), &payload); err != nil {
		t.Fatal(err)
	}
	if !payload.Active || payload.Fleet == nil || payload.Fleet.Stage != "crawl" {
		t.Errorf("published /fleetz = %+v", payload)
	}

	NewPublisher[status]("fleet") // the next run registers: latest wins
	if got := get(); strings.TrimSpace(got) != `{"active": false}` {
		t.Errorf("/fleetz after re-registration = %q, want the new run's inactive state", got)
	}
}

// TestReadJSONLSkipsBlankLines: ledger and trace files share one line
// loop. Both readers read input of blank lines as no records, skip
// blank lines between records without breaking the numbering, and
// count them in the line number an error names.
func TestReadJSONLSkipsBlankLines(t *testing.T) {
	events, err := ReadLedger(strings.NewReader("\n\n"))
	if err != nil || len(events) != 0 {
		t.Errorf("blank ledger read as %d events, %v", len(events), err)
	}
	spans, err := ReadSpans(strings.NewReader("\n\n"))
	if err != nil || len(spans) != 0 {
		t.Errorf("blank trace read as %d spans, %v", len(spans), err)
	}

	ledger := "\n" + `{"seq":0,"kind":"a"}` + "\n\n\n" + `{"seq":1,"kind":"b"}` + "\n\n"
	if events, err := ReadLedger(strings.NewReader(ledger)); err != nil || len(events) != 2 || events[1].Kind != "b" {
		t.Errorf("ledger with blank lines read as %+v, %v", events, err)
	}
	trace := "\n" + `{"id":1,"name":"a"}` + "\n\n\n" + `{"id":2,"parent":1,"name":"b"}` + "\n\n"
	if spans, err := ReadSpans(strings.NewReader(trace)); err != nil || len(spans) != 2 || spans[1].Parent != 1 {
		t.Errorf("trace with blank lines read as %+v, %v", spans, err)
	}

	_, err = ReadLedger(strings.NewReader(ledger + "x\n"))
	if err == nil || !strings.Contains(err.Error(), "ledger line 7") {
		t.Errorf("ledger error %v, want it to name ledger line 7", err)
	}
	_, err = ReadSpans(strings.NewReader(trace + "x\n"))
	if err == nil || !strings.Contains(err.Error(), "trace line 7") {
		t.Errorf("trace error %v, want it to name trace line 7", err)
	}
}
