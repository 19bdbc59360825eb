package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// event is one browser event fed to a ChainRecorder.
type event struct {
	kind   string
	fields map[string]string
}

// ev builds an event from alternating field keys and values.
func ev(kind string, kv ...string) event {
	fields := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		fields[kv[i]] = kv[i+1]
	}
	return event{kind, fields}
}

// record feeds events to one container's recorder, one second apart
// from t0, and returns the trace.
func record(container string, events ...event) []Span {
	tr := NewTracer(nil)
	rec := NewChainRecorder(tr, container)
	for i, e := range events {
		rec.Event(at(i), e.kind, e.fields)
	}
	return tr.Spans()
}

// at is the time of the i-th recorded event.
func at(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }

func assertChains(t *testing.T, got, want []Chain) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chains:\n got %+v\nwant %+v", got, want)
	}
}

func TestChainsSingleChain(t *testing.T) {
	spans := record("c1",
		ev("sw_registered", "sw", "https://cdn/sw.js", "origin", "https://pub.test", "token", "tok-1"),
		ev("push_received", "sw", "https://cdn/sw.js", "token", "tok-1"),
		ev("notification_shown", "sw", "https://cdn/sw.js", "title", "Win", "body", "Claim", "target", "https://t/x"),
		ev("notification_clicked", "sw", "https://cdn/sw.js", "title", "Win"),
		ev("sw_request", "url", "https://ads/click?t=x"),
		ev("navigation", "url", "https://t/x", "status", "302"),
		ev("redirect", "from", "https://t/x", "to", "https://land/x"),
		ev("navigation", "url", "https://land/x", "status", "200"),
		ev("landing_page", "url", "https://land/x", "title", "LP"),
	)
	assertChains(t, Chains(spans), []Chain{{
		Container:     "c1",
		Origin:        "https://pub.test",
		SWURL:         "https://cdn/sw.js",
		Token:         "tok-1",
		RegisteredAt:  at(0),
		Title:         "Win",
		Body:          "Claim",
		Target:        "https://t/x",
		ShownAt:       at(2),
		ClickedAt:     at(3),
		Clicked:       true,
		SWRequests:    []string{"https://ads/click?t=x"},
		RedirectChain: []string{"https://t/x", "https://land/x"},
		LandingURL:    "https://land/x",
		LandingTitle:  "LP",
	}})
}

func TestChainsInterleavedClicks(t *testing.T) {
	spans := record("c1",
		ev("sw_registered", "sw", "s", "origin", "o", "token", "t"),
		ev("push_received", "sw", "s", "token", "t"),
		ev("notification_shown", "sw", "s", "title", "A"),
		ev("push_received", "sw", "s", "token", "t"),
		ev("notification_shown", "sw", "s", "title", "B"),
		ev("notification_clicked", "title", "A"),
		ev("navigation", "url", "https://la/"),
		ev("landing_page", "url", "https://la/", "title", "LA"),
		ev("notification_clicked", "title", "B"),
		ev("navigation", "url", "https://lb/"),
		ev("landing_page", "url", "https://lb/", "title", "LB"),
	)
	chains := Chains(spans)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
	if a, b := chains[0], chains[1]; a.Title != "A" || a.LandingURL != "https://la/" || b.Title != "B" || b.LandingURL != "https://lb/" {
		t.Errorf("interleaved chains crossed: %+v", chains)
	}
}

func TestChainsCrashAndUnclicked(t *testing.T) {
	spans := record("c1",
		ev("sw_registered", "sw", "s", "origin", "o", "token", "t"),
		ev("push_received", "sw", "s", "token", "t"),
		ev("notification_shown", "sw", "s", "title", "Boom"),
		ev("notification_clicked", "title", "Boom"),
		ev("navigation", "url", "https://crash/"),
		ev("tab_crashed", "url", "https://crash/"),
		ev("push_received", "sw", "s", "token", "t"),
		ev("notification_shown", "sw", "s", "title", "Never clicked"),
	)
	chains := Chains(spans)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
	if c := chains[0]; c.Title != "Boom" || !c.Clicked || !c.Crashed || c.LandingURL != "" {
		t.Errorf("crashed chain = %+v", c)
	}
	if c := chains[1]; c.Title != "Never clicked" || c.Clicked || c.Origin != "o" {
		t.Errorf("unclicked chain = %+v", c)
	}
}

// TestChainsOutOfOrderIDs: Chains replays spans in ID order whatever
// order they arrive in, and keeps containers apart: interleaving two
// containers' traces and shuffling the spans changes nothing.
func TestChainsOutOfOrderIDs(t *testing.T) {
	one := func(container, title string) []Span {
		return record(container,
			ev("sw_registered", "sw", "s", "origin", "o-"+container, "token", "t"),
			ev("push_received", "sw", "s", "token", "t"),
			ev("notification_shown", "sw", "s", "title", title),
			ev("notification_clicked", "title", title),
			ev("landing_page", "url", "https://l/"+title),
		)
	}
	// c2 emits first, so its spans take the lower IDs.
	streams := [][]Span{one("c2", "B"), one("c1", "A")}
	var merged []Span
	for _, st := range streams {
		for _, sp := range st {
			sp.ID = SpanID(len(merged) + 1)
			sp.Parent = 0
			merged = append(merged, sp)
		}
	}
	want := append(Chains(streams[1]), Chains(streams[0])...)
	if len(want) != 2 || want[0].Container != "c1" || want[1].Container != "c2" {
		t.Fatalf("per-container chains = %+v", want)
	}
	assertChains(t, Chains(merged), want)

	shuffled := make([]Span, len(merged))
	for i, sp := range merged {
		shuffled[(i*3)%len(merged)] = sp // 3 is coprime to 10 spans
	}
	assertChains(t, Chains(shuffled), want)
}

// TestChainsDuplicateTitle: one title on screen twice is clicked in
// display order, and each click links to its own notification in the
// live trace and in the replay.
func TestChainsDuplicateTitle(t *testing.T) {
	spans := record("c1",
		ev("sw_registered", "sw", "s", "origin", "o", "token", "t"),
		ev("push_received", "sw", "s", "token", "t"),
		ev("notification_shown", "sw", "s", "title", "Same", "target", "https://first/"),
		ev("push_received", "sw", "s", "token", "t"),
		ev("notification_shown", "sw", "s", "title", "Same", "target", "https://second/"),
		ev("notification_clicked", "title", "Same"),
		ev("landing_page", "url", "https://first/"),
		ev("notification_clicked", "title", "Same"),
		ev("landing_page", "url", "https://second/"),
	)
	if got := spans[5].Parent; got != spans[2].ID {
		t.Errorf("first click parented under span %d, want the first notification %d", got, spans[2].ID)
	}
	if got := spans[7].Parent; got != spans[4].ID {
		t.Errorf("second click parented under span %d, want the second notification %d", got, spans[4].ID)
	}
	chains := Chains(spans)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
	for i, c := range chains {
		if !c.Clicked || c.LandingURL != c.Target {
			t.Errorf("chain %d shown with target %q landed on %q", i, c.Target, c.LandingURL)
		}
	}
}

// TestChainsTwoSubscriptionsOneSW: two subscriptions that share one SW
// script are told apart by token, so each push links to its own
// registration in the live trace and in the replay.
func TestChainsTwoSubscriptionsOneSW(t *testing.T) {
	spans := record("c1",
		ev("sw_registered", "sw", "s", "origin", "https://first", "token", "t1"),
		ev("sw_registered", "sw", "s", "origin", "https://second", "token", "t2"),
		ev("push_received", "sw", "s", "token", "t1"),
		ev("notification_shown", "sw", "s", "title", "A"),
		ev("push_received", "sw", "s", "token", "t2"),
		ev("notification_shown", "sw", "s", "title", "B"),
	)
	if got := spans[2].Parent; got != spans[0].ID {
		t.Errorf("push for t1 parented under span %d, want its registration %d", got, spans[0].ID)
	}
	if got := spans[4].Parent; got != spans[1].ID {
		t.Errorf("push for t2 parented under span %d, want its registration %d", got, spans[1].ID)
	}
	chains := Chains(spans)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
	for i, want := range []struct {
		origin, token string
		at            time.Time
	}{{"https://first", "t1", at(0)}, {"https://second", "t2", at(1)}} {
		if c := chains[i]; c.Origin != want.origin || c.Token != want.token || !c.RegisteredAt.Equal(want.at) {
			t.Errorf("chain %d (%s) has registration %s/%s at %v, want %s/%s at %v",
				i, c.Title, c.Origin, c.Token, c.RegisteredAt, want.origin, want.token, want.at)
		}
	}
}

// TestChainsFailedNavigation: a click whose navigation failed leaves no
// landing page, and the events after it belong to what comes next: the
// SW requests of the next push and the landing page of a re-visit are
// neither linked under the click nor counted in its chain.
func TestChainsFailedNavigation(t *testing.T) {
	spans := record("c1",
		ev("visit", "url", "https://pub.test/"),
		ev("sw_registered", "sw", "s", "origin", "https://pub.test", "token", "t"),
		ev("push_received", "sw", "s", "token", "t"),
		ev("notification_shown", "sw", "s", "title", "A"),
		ev("notification_clicked", "title", "A"),
		ev("navigation", "url", "https://gone/", "error", "connection reset"),
		ev("push_received", "sw", "s", "token", "t"),
		ev("sw_request", "url", "https://ads/fetch"),
		ev("notification_shown", "sw", "s", "title", "B"),
		ev("visit", "url", "https://pub.test/"),
		ev("navigation", "url", "https://pub.test/", "status", "200"),
		ev("landing_page", "url", "https://pub.test/"),
	)
	if got := spans[7].Parent; got != spans[6].ID {
		t.Errorf("SW request of the second push parented under span %d, want the push %d", got, spans[6].ID)
	}
	if got := spans[11].Parent; got != spans[9].ID {
		t.Errorf("re-visit landing page parented under span %d, want the visit %d", got, spans[9].ID)
	}
	chains := Chains(spans)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(chains))
	}
	if a := chains[0]; a.Title != "A" || !a.Clicked || a.LandingURL != "" || len(a.SWRequests) != 0 ||
		!reflect.DeepEqual(a.RedirectChain, []string{"https://gone/"}) {
		t.Errorf("chain of the failed click = %+v", a)
	}
	if b := chains[1]; b.Title != "B" || b.Clicked {
		t.Errorf("unclicked chain = %+v", b)
	}
}

// TestChainRecorderRoundTrip: the events two containers' recorders
// write to one trace read back from JSONL numbered 1, 2, 3, … in
// emission order, each under its container and event kind, and rebuild
// the same chains as the live spans.
func TestChainRecorderRoundTrip(t *testing.T) {
	tr := NewTracer(nil)
	recs := map[string]*ChainRecorder{"c1": NewChainRecorder(tr, "c1"), "c2": NewChainRecorder(tr, "c2")}
	steps := []struct {
		container string
		event
	}{
		{"c1", ev("visit", "url", "https://a.test/")},
		{"c2", ev("visit", "url", "https://b.test/")},
		{"c1", ev("sw_registered", "sw", "s", "origin", "https://a.test", "token", "ta")},
		{"c2", ev("sw_registered", "sw", "s", "origin", "https://b.test", "token", "tb")},
		{"c2", ev("push_received", "sw", "s", "token", "tb")},
		{"c1", ev("push_received", "sw", "s", "token", "ta")},
		{"c2", ev("notification_shown", "sw", "s", "title", "B")},
		{"c1", ev("notification_shown", "sw", "s", "title", "A")},
		{"c1", ev("notification_clicked", "title", "A")},
		{"c2", ev("notification_clicked", "title", "B")},
		{"c1", ev("landing_page", "url", "https://la/")},
		{"c2", ev("landing_page", "url", "https://lb/")},
	}
	for i, s := range steps {
		recs[s.container].Event(at(i), s.kind, s.fields)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(steps) {
		t.Fatalf("read %d spans, recorded %d events", len(got), len(steps))
	}
	for i, sp := range got {
		if sp.ID != SpanID(i+1) || sp.Container != steps[i].container || sp.Name != steps[i].kind || !sp.Start.Equal(at(i)) {
			t.Errorf("span %d = %+v, want id %d, %s %s at %v", i, sp, i+1, steps[i].container, steps[i].kind, at(i))
		}
	}
	if !reflect.DeepEqual(got, tr.Spans()) {
		t.Fatalf("round trip read %+v, wrote %+v", got, tr.Spans())
	}
	chains := Chains(got)
	if len(chains) != 2 || chains[0].Token != "ta" || chains[1].Token != "tb" || !chains[0].Clicked || !chains[1].Clicked {
		t.Fatalf("chains from the read trace = %+v", chains)
	}
	assertChains(t, chains, Chains(tr.Spans()))
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
