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

// acceptance is the acceptance fault mix: the crawl must shrug off
// connection resets, 503 bursts and a push outage.
func acceptance() *chaos.Profile {
	p, ok := chaos.Preset("acceptance")
	if !ok {
		panic("acceptance preset missing")
	}
	p.Seed = 5
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

func fleetRun(t *testing.T, seed int64, prof *chaos.Profile) []byte {
	t.Helper()
	eco := newEco(t, seed, prof)
	res, err := Run(context.Background(), Config{Crawl: crawlConfig(eco, nil)}, eco.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	return marshal(t, res)
}

func marshal(t *testing.T, res *crawler.Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunMatchesReferenceLoop is Run's contract: with and without
// faults, it returns the reference loop's result — byte-identical
// records, URL lists, and Degradation report.
func TestRunMatchesReferenceLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		prof func() *chaos.Profile
	}{
		{"seed11", 11, func() *chaos.Profile { return nil }},
		{"seed11/chaos", 11, acceptance},
		{"seed23/chaos", 23, acceptance},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := baselineRun(t, tc.seed, tc.prof())
			if got := fleetRun(t, tc.seed, tc.prof()); !bytes.Equal(want, got) {
				t.Errorf("Run diverges from the reference loop:\n%s", resultDiff(want, got))
			}
		})
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

// lineDiff names where two JSONL outputs, traces or ledgers, diverge:
// the first differing line, by the span id or ledger seq it carries,
// with both lines.
func lineDiff(a, b []byte) string {
	la, lb := jsonlLines(a), jsonlLines(b)
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("first divergent line %d (%s)\n<<< %s\n>>> %s", i+1, lineName(la[i]), la[i], lb[i])
		}
	}
	if len(la) == len(lb) {
		return "outputs are identical"
	}
	return fmt.Sprintf("one output is a prefix of the other (%d vs %d lines)", len(la), len(lb))
}

func jsonlLines(b []byte) [][]byte {
	if len(b) == 0 {
		return nil
	}
	return bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
}

// lineName names a JSONL line by its span id or its ledger seq.
func lineName(line []byte) string {
	var v struct {
		ID  *int64 `json:"id"`
		Seq *int64 `json:"seq"`
	}
	switch {
	case json.Unmarshal(line, &v) != nil:
		return "not JSON"
	case v.ID != nil:
		return fmt.Sprintf("span id %d", *v.ID)
	case v.Seq != nil:
		return fmt.Sprintf("ledger seq %d", *v.Seq)
	}
	return "no id or seq"
}

// TestLineDiffNamesSpanAndSeq: lineDiff points at the first divergent
// span of a trace or event of a ledger and shows both lines.
func TestLineDiffNamesSpanAndSeq(t *testing.T) {
	trace := func(names ...string) []byte {
		tr := telemetry.NewTracer(func() time.Time { return time.Unix(0, 0).UTC() })
		for _, name := range names {
			tr.Start("c1", name, 0, nil)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := lineDiff(trace("visit", "push_received", "notification_shown"), trace("visit", "push_received", "tab_crashed"))
	if !strings.Contains(got, "span id 3") || !strings.Contains(got, `"name":"notification_shown"`) || !strings.Contains(got, `"name":"tab_crashed"`) {
		t.Errorf("diff of traces diverging at span 3 = %q", got)
	}

	ledger := func(kinds ...string) []byte {
		led := telemetry.NewLedger()
		for _, k := range kinds {
			led.Append(telemetry.Event{Kind: k})
		}
		var buf bytes.Buffer
		if err := telemetry.WriteLedger(&buf, led.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got = lineDiff(ledger(EvShardStarted, EvMerge, EvMerge), ledger(EvShardStarted, EvShardStarted, EvMerge))
	if !strings.Contains(got, "ledger seq 1") || !strings.Contains(got, `"kind":"merge"`) || !strings.Contains(got, `>>> {"seq":1,"kind":"shard_started"`) {
		t.Errorf("diff of ledgers diverging at seq 1 = %q", got)
	}
	if got := lineDiff(ledger(EvMerge), ledger(EvMerge, EvMerge)); !strings.Contains(got, "prefix") || !strings.Contains(got, "1 vs 2 lines") {
		t.Errorf("diff of a ledger and its extension = %q", got)
	}
}
