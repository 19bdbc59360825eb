package crawler

import (
	"strings"
	"testing"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/webeco"
)

// TestWPNServingSteps verifies the Figure 2/3 pipeline end to end: the
// eight steps of serving an ad via WPNs all appear, in order, in one
// container's trace.
//
//  1. visit + permission request        (EvVisit, EvPermissionRequested)
//  2. SW registration                   (EvSWRegistered)
//  3. subscription announced to network (page_request to /subscribe)
//  4. push received from the service    (EvPushReceived)
//  5. SW fetches the ad                 (EvSWRequest to /ad)
//  6. notification displayed            (EvNotificationShown)
//  7. auto-click                        (EvNotificationClicked)
//  8. navigation + landing page         (EvNavigation, EvLandingPage)
func TestWPNServingSteps(t *testing.T) {
	eco, err := webeco.New(webeco.Config{Seed: 21, Scale: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	defer eco.Close()

	// Find a publisher site of a high-ad-share network so the first
	// push is near-surely an ad.
	var seed string
	for _, s := range eco.Sites() {
		if s.NPR && s.Network == "Ad-Maven" {
			seed = s.URL
			break
		}
	}
	if seed == "" {
		t.Skip("no Ad-Maven NPR site at this scale")
	}

	tracer := telemetry.NewTracer(nil)
	br := browser.New(browser.Config{
		Clock:  eco.Clock,
		Client: eco.Net.ClientNoRedirect(),
		Tracer: tracer,
	})
	vr, err := br.Visit(seed)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Registration == nil {
		t.Fatal("no SW registration")
	}

	// Drive time until the first push is delivered and clicked.
	deadline := eco.Clock.Now().Add(96 * time.Hour)
	for eco.Clock.Now().Before(deadline) {
		at, ok := eco.NextPushAt()
		if !ok {
			break
		}
		eco.Clock.Advance(at.Sub(eco.Clock.Now()))
		eco.Tick()
		if n, _ := br.PumpPush(""); n > 0 {
			eco.Clock.Advance(5 * time.Second)
			if len(br.ProcessClicks()) > 0 {
				break
			}
		}
	}

	wantOrder := []browser.EventKind{
		browser.EvVisit,
		browser.EvPermissionRequested,
		browser.EvPermissionGranted,
		browser.EvSWRegistered,
		browser.EvPushReceived,
		browser.EvNotificationShown,
		browser.EvNotificationClicked,
		browser.EvNavigation,
	}
	spans := tracer.Spans()
	pos := 0
	for _, sp := range spans {
		if pos < len(wantOrder) && sp.Name == string(wantOrder[pos]) {
			pos++
		}
	}
	if pos != len(wantOrder) {
		kinds := make([]string, len(spans))
		for i, sp := range spans {
			kinds[i] = sp.Name
		}
		t.Fatalf("step %d (%s) missing from event sequence: %v", pos+1, wantOrder[pos], kinds)
	}

	// Step 3: the subscription reached the ad network over HTTP.
	sawSubscribe := false
	// Step 5: the SW contacted the ad server to resolve the ad.
	sawAdFetch := false
	for _, sp := range spans {
		if sp.Name == string(browser.EvPageRequest) && contains(sp.Attrs["url"], "/subscribe") {
			sawSubscribe = true
		}
		if sp.Name == string(browser.EvSWRequest) && contains(sp.Attrs["url"], "/ad?id=") {
			sawAdFetch = true
		}
	}
	if !sawSubscribe {
		t.Error("step 3 missing: subscription never announced to the ad network")
	}
	if !sawAdFetch {
		t.Error("step 5 missing: SW never fetched the ad")
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
