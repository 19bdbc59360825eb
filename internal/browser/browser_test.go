package browser

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/fcm"
	"pushadminer/internal/page"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/simclock"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/vnet"
	"pushadminer/internal/webpush"
)

var t0 = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// fixture is a hand-built miniature push-ad ecosystem: one publisher,
// one ad network, one push service, one landing chain.
type fixture struct {
	net   *vnet.Network
	push  *fcm.Service
	clock *simclock.Simulated
	// subscription captured by the ad network's /subscribe endpoint
	subscribed chan webpush.Subscription
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n, err := vnet.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	f := &fixture{
		net:        n,
		push:       fcm.New(""),
		clock:      simclock.NewSimulated(t0),
		subscribed: make(chan webpush.Subscription, 16),
	}
	n.Handle(fcm.DefaultHost, f.push)

	// Publisher page that requests notification permission.
	pub := &page.Doc{
		Title:                "Free Movie Streams",
		Content:              "watch movies online free",
		Scripts:              []string{"//adnet tag", "Notification.requestPermission()"},
		RequestsNotification: true,
		SWURL:                "https://cdn.adnet.test/sw.js",
		SubscribeURL:         "https://adnet.test/subscribe",
	}
	n.HandleFunc("pub.test", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(pub.Encode()) //nolint:errcheck
	})

	// Ad network: SW script, ad metadata, click tracker, subscribe sink.
	script := &serviceworker.Script{
		OnPush: []serviceworker.Op{
			{Do: serviceworker.OpFetch, URL: "https://adnet.test/ad?id={{ad_id}}", SaveAs: "ad"},
			{Do: serviceworker.OpShowNotification, Notification: &webpush.Notification{
				Title: "{{ad.title}}", Body: "{{ad.body}}", TargetURL: "{{ad.target}}",
			}},
		},
		OnClick: []serviceworker.Op{
			{Do: serviceworker.OpPostback, URL: "https://adnet.test/click?t={{n.target_url}}"},
			{Do: serviceworker.OpOpenWindow, URL: "{{n.target_url}}"},
		},
	}
	n.HandleFunc("cdn.adnet.test", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/javascript")
		w.Write(script.Source()) //nolint:errcheck
	})
	n.HandleFunc("adnet.test", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ad":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"title":"Your payment info has been leaked","body":"Fix it now","target":"https://redir.test/go"}`)
		case "/click":
			w.WriteHeader(http.StatusNoContent)
		case "/subscribe":
			var sub webpush.Subscription
			body := make([]byte, 4096)
			m, _ := r.Body.Read(body)
			_ = m
			// tolerant parse: token field only
			s := string(body)
			if i := strings.Index(s, `"token":"`); i >= 0 {
				rest := s[i+len(`"token":"`):]
				sub.Token = rest[:strings.IndexByte(rest, '"')]
			}
			select {
			case f.subscribed <- sub:
			default:
			}
			w.WriteHeader(http.StatusCreated)
		default:
			http.NotFound(w, r)
		}
	})

	// Redirector and landing page (tech support scam).
	n.HandleFunc("redir.test", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "https://scam.test/support?case=99", http.StatusFound)
	})
	n.HandleFunc("scam.test", func(w http.ResponseWriter, r *http.Request) {
		doc := &page.Doc{Title: "Microsoft Support", Content: "call now 1-800-SCAM your computer is infected"}
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	})

	// Crashing landing page.
	n.HandleFunc("crash.test", func(w http.ResponseWriter, r *http.Request) {
		doc := &page.Doc{Title: "boom", Crash: true}
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	})
	return f
}

// browser builds a browser on the fixture, tracing its events so tests
// can read them back with spansOf.
func (f *fixture) browser(cfg Config) *Browser {
	cfg.Clock = f.clock
	cfg.Client = f.net.ClientNoRedirect()
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewTracer(nil)
	}
	return New(cfg)
}

// spansOf returns the spans the browser traced for events of kind.
func spansOf(b *Browser, kind EventKind) []telemetry.Span {
	var out []telemetry.Span
	for _, sp := range b.cfg.Tracer.Spans() {
		if sp.Name == string(kind) {
			out = append(out, sp)
		}
	}
	return out
}

func TestVisitGrantsAndRegisters(t *testing.T) {
	f := newFixture(t)
	b := f.browser(Config{})
	res, err := b.Visit("https://pub.test/")
	if err != nil {
		t.Fatal(err)
	}
	if !res.RequestedPermission || !res.Granted {
		t.Fatalf("res = %+v", res)
	}
	if res.Registration == nil || res.Registration.Sub.Token == "" {
		t.Fatal("no registration created")
	}
	if got := f.push.NumSubscriptions(); got != 1 {
		t.Errorf("push subscriptions = %d", got)
	}
	select {
	case sub := <-f.subscribed:
		if sub.Token != res.Registration.Sub.Token {
			t.Errorf("ad network learned token %q, browser has %q", sub.Token, res.Registration.Sub.Token)
		}
	default:
		t.Error("ad network never received the subscription")
	}
	// Event sequence includes the key steps in order.
	kinds := []EventKind{}
	for _, sp := range b.cfg.Tracer.Spans() {
		kinds = append(kinds, EventKind(sp.Name))
	}
	wantOrder := []EventKind{EvVisit, EvPermissionRequested, EvPermissionGranted, EvSWRegistered}
	pos := 0
	for _, k := range kinds {
		if pos < len(wantOrder) && k == wantOrder[pos] {
			pos++
		}
	}
	if pos != len(wantOrder) {
		t.Errorf("event order missing steps; got %v", kinds)
	}
}

func TestVisitDenyPolicy(t *testing.T) {
	f := newFixture(t)
	b := f.browser(Config{Policy: Deny})
	res, err := b.Visit("https://pub.test/")
	if err != nil {
		t.Fatal(err)
	}
	if !res.RequestedPermission || res.Granted || res.Registration != nil {
		t.Fatalf("res = %+v", res)
	}
	if len(spansOf(b, EvPermissionDenied)) != 1 {
		t.Error("no denial logged")
	}
}

func TestQuietUIPolicy(t *testing.T) {
	f := newFixture(t)
	quieted := f.browser(Config{Policy: QuietUI, QuietedOrigins: map[string]bool{"https://pub.test": true}})
	res, err := quieted.Visit("https://pub.test/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Error("quieted origin still granted")
	}
	if len(spansOf(quieted, EvPermissionQuieted)) != 1 {
		t.Error("no quieted event")
	}
	// Not on the list → still prompts and grants (§6.4's finding).
	open := f.browser(Config{Policy: QuietUI})
	res, err = open.Visit("https://pub.test/")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Error("unlisted origin was not granted under QuietUI")
	}
}

// pushAd drives one full push→display cycle for an already-visited
// browser.
func pushAd(t *testing.T, f *fixture, b *Browser, adID string) {
	t.Helper()
	regs := b.Registrations()
	if len(regs) != 1 {
		t.Fatalf("registrations = %d", len(regs))
	}
	payload := webpush.EncodePayload(webpush.Payload{AdID: adID})
	if err := f.push.Send(webpush.Message{Token: regs[0].Sub.Token, Data: payload}); err != nil {
		t.Fatal(err)
	}
	n, err := b.PumpPush("")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("PumpPush processed %d", n)
	}
}

func TestPushDisplayClickLanding(t *testing.T) {
	f := newFixture(t)
	b := f.browser(Config{})
	if _, err := b.Visit("https://pub.test/"); err != nil {
		t.Fatal(err)
	}
	pushAd(t, f, b, "ad1")

	notifs := b.Notifications()
	if len(notifs) != 1 {
		t.Fatalf("notifications = %d", len(notifs))
	}
	if notifs[0].Notification.Title != "Your payment info has been leaked" {
		t.Errorf("title = %q", notifs[0].Notification.Title)
	}
	if len(notifs[0].SWRequests) != 1 {
		t.Errorf("push SW requests = %d, want 1 (ad fetch)", len(notifs[0].SWRequests))
	}

	// Not yet due: no clicks.
	if got := b.ProcessClicks(); len(got) != 0 {
		t.Fatalf("clicked before delay: %d", len(got))
	}
	f.clock.Advance(5 * time.Second)
	outcomes := b.ProcessClicks()
	if len(outcomes) != 1 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	oc := outcomes[0]
	if oc.NavError != "" {
		t.Fatalf("nav error: %s", oc.NavError)
	}
	if len(oc.SWRequests) != 1 || !strings.Contains(oc.SWRequests[0].URL, "/click?") {
		t.Errorf("click SW requests = %+v", oc.SWRequests)
	}
	nav := oc.Navigation
	if nav == nil {
		t.Fatal("no navigation")
	}
	if nav.FinalURL != "https://scam.test/support?case=99" {
		t.Errorf("final URL = %q", nav.FinalURL)
	}
	if len(nav.RedirectChain) != 2 {
		t.Errorf("redirect chain = %v", nav.RedirectChain)
	}
	if nav.Title != "Microsoft Support" || nav.Crashed {
		t.Errorf("landing = %+v", nav)
	}
	if nav.ScreenshotHash == "" {
		t.Error("no screenshot hash")
	}
	// Clicking again is a no-op.
	f.clock.Advance(time.Minute)
	if again := b.ProcessClicks(); len(again) != 0 {
		t.Errorf("re-clicked: %d", len(again))
	}
}

// TestChainsMatchLiveBrowser drives a real browser session through a
// full chain, reads its trace back from JSONL, and requires the chain
// telemetry.Chains rebuilds to be what the browser actually did: the
// JSgraph guarantee for a single browser.
func TestChainsMatchLiveBrowser(t *testing.T) {
	f := newFixture(t)
	tr := telemetry.NewTracer(nil)
	b := f.browser(Config{ClientID: "container-1", Tracer: tr})
	if _, err := b.Visit("https://pub.test/"); err != nil {
		t.Fatal(err)
	}
	pushAd(t, f, b, "ad1")
	f.clock.Advance(5 * time.Second)
	outcomes := b.ProcessClicks()
	if len(outcomes) != 1 || outcomes[0].Navigation == nil {
		t.Fatalf("outcomes = %+v", outcomes)
	}
	oc := outcomes[0]
	dn, nav, reg := oc.Notification, oc.Navigation, oc.Notification.Registration
	if reg.Origin == "" || reg.Sub.Token == "" || len(oc.SWRequests) == 0 {
		t.Fatalf("live session lacks the subscription or click context: %+v", oc)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	chains := telemetry.Chains(spans)
	if len(chains) != 1 {
		t.Fatalf("chains = %+v", chains)
	}
	c := chains[0]
	var swRequests []string
	for _, r := range oc.SWRequests {
		swRequests = append(swRequests, r.URL)
	}
	want := telemetry.Chain{
		Container:     "container-1",
		Origin:        reg.Origin,
		SWURL:         "https://cdn.adnet.test/sw.js",
		Token:         reg.Sub.Token,
		RegisteredAt:  t0,
		Title:         dn.Notification.Title,
		Body:          dn.Notification.Body,
		Target:        dn.Notification.TargetURL,
		ShownAt:       dn.ShownAt,
		ClickedAt:     t0.Add(5 * time.Second),
		Clicked:       true,
		SWRequests:    swRequests,
		RedirectChain: nav.RedirectChain,
		LandingURL:    nav.FinalURL,
		LandingTitle:  nav.Title,
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("rebuilt chain:\n %+v\nlive browser:\n %+v", c, want)
	}
}

// TestUntracedLogAllocatesNothing: a browser without a tracer drops
// each event before building its fields, so untraced crawls pay nothing
// for instrumentation.
func TestUntracedLogAllocatesNothing(t *testing.T) {
	b := New(Config{Client: &http.Client{}})
	url, origin := "https://pub.test/", "https://pub.test"
	allocs := testing.AllocsPerRun(100, func() {
		b.log(EvVisit, "url", url, "device", b.cfg.Device.String())
		b.log(EvPermissionGranted, "origin", origin)
	})
	if allocs != 0 {
		t.Errorf("untraced log: %v allocations per run, want 0", allocs)
	}
}

func TestCrashedLandingPage(t *testing.T) {
	f := newFixture(t)
	b := f.browser(Config{})
	nav, err := b.Navigate("https://crash.test/")
	if err != nil {
		t.Fatal(err)
	}
	if !nav.Crashed {
		t.Error("crash page did not crash the tab")
	}
	if len(spansOf(b, EvTabCrashed)) != 1 {
		t.Error("no tab_crashed event")
	}
	if len(spansOf(b, EvLandingPage)) != 0 {
		t.Error("crashed tab still produced a landing_page event")
	}
}

func TestRedirectLoopBounded(t *testing.T) {
	f := newFixture(t)
	f.net.HandleFunc("loop.test", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "https://loop.test/again", http.StatusFound)
	})
	b := f.browser(Config{MaxRedirects: 4})
	if _, err := b.Navigate("https://loop.test/"); err == nil {
		t.Error("redirect loop not detected")
	}
}

func TestMobileSurfaceAndHeaders(t *testing.T) {
	f := newFixture(t)
	var sawDevice string
	f.net.HandleFunc("mob.test", func(w http.ResponseWriter, r *http.Request) {
		sawDevice = r.Header.Get("X-Sim-Device")
		w.Header().Set("Content-Type", page.ContentType)
		w.Write((&page.Doc{Title: "m"}).Encode()) //nolint:errcheck
	})
	b := f.browser(Config{Device: Mobile, RealDevice: true})
	if _, err := b.Visit("https://mob.test/"); err != nil {
		t.Fatal(err)
	}
	if sawDevice != "physical" {
		t.Errorf("X-Sim-Device = %q", sawDevice)
	}
	if b.surface() != "os_tray" {
		t.Errorf("surface = %q", b.surface())
	}
}

func TestDoublePermissionLogged(t *testing.T) {
	f := newFixture(t)
	doc := &page.Doc{
		Title: "dp", RequestsNotification: true, DoublePermission: true,
		SWURL: "https://cdn.adnet.test/sw.js",
	}
	f.net.HandleFunc("dp.test", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	})
	b := f.browser(Config{})
	res, err := b.Visit("https://dp.test/")
	if err != nil {
		t.Fatal(err)
	}
	if !res.DoublePermission || !res.Granted {
		t.Fatalf("res = %+v", res)
	}
	if len(spansOf(b, EvJSPermissionPrompt)) != 1 {
		t.Error("JS prompt not logged")
	}
}

func TestUntitledNotificationRefused(t *testing.T) {
	f := newFixture(t)
	b := f.browser(Config{})
	if _, err := b.Visit("https://pub.test/"); err != nil {
		t.Fatal(err)
	}
	regs := b.Registrations()
	// Payload-only push whose notification has no title.
	payload := webpush.EncodePayload(webpush.Payload{Notification: &webpush.Notification{Body: "no title"}})
	// Use a script with a default handler for this: craft a direct dispatch.
	reg := &serviceworker.Registration{
		Origin: regs[0].Origin,
		Script: &serviceworker.Script{URL: "https://x/sw.js"},
		Sub:    regs[0].Sub,
	}
	b.dispatchPush(reg, webpush.Message{Token: regs[0].Sub.Token, Data: payload})
	if len(b.Notifications()) != 0 {
		t.Error("untitled notification displayed")
	}
}

func TestVisitNonPushPage(t *testing.T) {
	f := newFixture(t)
	f.net.HandleFunc("plain.test", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html>plain old page</html>")
	})
	b := f.browser(Config{})
	res, err := b.Visit("https://plain.test/")
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestedPermission || res.Granted {
		t.Errorf("plain page: %+v", res)
	}
	if res.Navigation.Content == "" {
		t.Error("plain page content not captured")
	}
}

func TestClickAction(t *testing.T) {
	f := newFixture(t)
	b := f.browser(Config{})
	if _, err := b.Visit("https://pub.test/"); err != nil {
		t.Fatal(err)
	}
	pushAd(t, f, b, "ad-act")
	dn := b.Notifications()[0]
	oc := b.ClickAction(dn, "open")
	if oc.Navigation == nil {
		t.Fatal("action click produced no navigation")
	}
	if !dn.Clicked {
		t.Error("notification not marked clicked")
	}
	// The action id is logged.
	clicked := spansOf(b, EvNotificationClicked)
	if len(clicked) != 1 || clicked[0].Attrs["action"] != "open" {
		t.Errorf("click event = %+v", clicked)
	}
	// Auto-click machinery must not re-click it.
	f.clock.Advance(time.Minute)
	if again := b.ProcessClicks(); len(again) != 0 {
		t.Errorf("action-clicked notification re-clicked: %d", len(again))
	}
}

func TestVisitSWScriptMissing(t *testing.T) {
	f := newFixture(t)
	doc := &page.Doc{
		Title: "broken", RequestsNotification: true,
		SWURL: "https://adnet.test/missing.js",
	}
	f.net.HandleFunc("broken.test", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	})
	b := f.browser(Config{})
	if _, err := b.Visit("https://broken.test/"); err == nil {
		t.Error("404 SW script accepted")
	}
}

func TestVisitSWScriptUnparseable(t *testing.T) {
	f := newFixture(t)
	doc := &page.Doc{
		Title: "badsw", RequestsNotification: true,
		SWURL: "https://badsw.test/sw.js",
	}
	f.net.HandleFunc("badsw.test", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sw.js" {
			fmt.Fprint(w, "function(){ not json }")
			return
		}
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	})
	b := f.browser(Config{})
	if _, err := b.Visit("https://badsw.test/"); err == nil {
		t.Error("unparseable SW script accepted")
	}
}

func TestVisitPermissionWithoutSWURL(t *testing.T) {
	f := newFixture(t)
	doc := &page.Doc{Title: "nosw", RequestsNotification: true}
	f.net.HandleFunc("nosw.test", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	})
	b := f.browser(Config{})
	if _, err := b.Visit("https://nosw.test/"); err == nil {
		t.Error("permission request without sw_url accepted")
	}
}

func TestNavigateUnknownHost(t *testing.T) {
	f := newFixture(t)
	b := f.browser(Config{})
	nav, err := b.Navigate("https://no-such-host.test/x")
	if err != nil {
		t.Fatalf("vnet 502 should be a response, not an error: %v", err)
	}
	if nav.Status != http.StatusBadGateway {
		t.Errorf("status = %d", nav.Status)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestNavigateUnloadableSendsNothing: a hop that is not an http(s) URL —
// the empty target of a notification that opens no page, a javascript:
// URL — fails without a request or a retry, and its one navigation span
// carries the error.
func TestNavigateUnloadableSendsNothing(t *testing.T) {
	f := newFixture(t)
	for _, target := range []string{"", "javascript:void(0)"} {
		client := f.net.ClientNoRedirect()
		inner := client.Transport
		if inner == nil {
			inner = http.DefaultTransport
		}
		sent := 0
		client.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
			sent++
			return inner.RoundTrip(r)
		})
		reg := telemetry.New()
		b := New(Config{Clock: f.clock, Client: client, Tracer: telemetry.NewTracer(nil), Metrics: reg})
		nav, err := b.Navigate(target)
		if err == nil {
			t.Errorf("Navigate(%q) succeeded", target)
		}
		if sent != 0 {
			t.Errorf("Navigate(%q) sent %d requests, want 0", target, sent)
		}
		if n := reg.Counter("browser_nav_retries").Value(); n != 0 {
			t.Errorf("Navigate(%q) retried %d times", target, n)
		}
		if nav == nil || len(nav.RedirectChain) != 1 || nav.RedirectChain[0] != target {
			t.Errorf("Navigate(%q) navigation = %+v, want a one-hop chain", target, nav)
		}
		spans := spansOf(b, EvNavigation)
		if len(spans) != 1 || spans[0].Attrs["url"] != target || spans[0].Attrs["error"] == "" {
			t.Errorf("Navigate(%q) traced %+v, want one navigation span with the error", target, spans)
		}
	}
}
