package crawler_test

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/chaos"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/webeco"
)

func newEco(t testing.TB, scale float64) *webeco.Ecosystem {
	t.Helper()
	return newChaosEco(t, scale, nil)
}

// newChaosEco builds the standard test ecosystem with a chaos profile.
func newChaosEco(t testing.TB, scale float64, prof *chaos.Profile) *webeco.Ecosystem {
	t.Helper()
	eco, err := webeco.New(webeco.Config{Seed: 11, Scale: scale, Chaos: prof})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eco.Close() })
	return eco
}

// crawlConfig wires a 7-day crawl to an ecosystem, with fault
// injection and recovery hooked up, plus optional overrides.
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

// crawlContext runs one crawl the way every caller does: through the
// fleet, here with its default single shard.
func crawlContext(t *testing.T, ctx context.Context, eco *webeco.Ecosystem, mod func(*crawler.Config)) (*crawler.Result, error) {
	t.Helper()
	res, _, err := fleet.Run(ctx, fleet.Config{Crawl: crawlConfig(eco, mod)}, eco.SeedURLs())
	return res, err
}

// crawl runs an uncancelled crawl and fails the test on error.
func crawl(t *testing.T, eco *webeco.Ecosystem, mod func(*crawler.Config)) *crawler.Result {
	t.Helper()
	res, err := crawlContext(t, context.Background(), eco, mod)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// onDevice selects the crawl's device profile.
func onDevice(device browser.DeviceType, real bool) func(*crawler.Config) {
	return func(c *crawler.Config) {
		c.Device = device
		c.RealDevice = real
	}
}

func TestNewRequiresDeps(t *testing.T) {
	if _, err := crawler.NewShardWorker(context.Background(), crawler.Config{}, 0, nil); err == nil {
		t.Fatal("NewShardWorker accepted empty config")
	}
	if _, _, err := fleet.Run(context.Background(), fleet.Config{}, nil); err == nil {
		t.Fatal("fleet.Run accepted empty crawl config")
	}
}

func TestCrawlCollectsWPNs(t *testing.T) {
	eco := newEco(t, 0.004)
	res := crawl(t, eco, onDevice(browser.Desktop, false))
	if len(res.SeedURLs) == 0 {
		t.Fatal("no seed URLs")
	}
	if len(res.NPRURLs) == 0 {
		t.Fatal("no NPR URLs found")
	}
	if len(res.NPRURLs) >= len(res.SeedURLs) {
		t.Errorf("NPR URLs (%d) should be a small subset of seeds (%d)", len(res.NPRURLs), len(res.SeedURLs))
	}
	if res.Containers == 0 {
		t.Fatal("no containers registered service workers")
	}
	if len(res.Records) == 0 {
		t.Fatal("no WPN records collected")
	}

	valid := 0
	for _, r := range res.Records {
		if r.Title == "" {
			t.Errorf("record %d has no title", r.ID)
		}
		if r.SourceURL == "" || r.SourceDomain == "" {
			t.Errorf("record %d missing source: %+v", r.ID, r)
		}
		if r.SWURL == "" {
			t.Errorf("record %d missing SW URL", r.ID)
		}
		if r.Device != "desktop" {
			t.Errorf("record %d device = %q", r.ID, r.Device)
		}
		if r.ValidLanding() {
			valid++
			if r.LandingURL == "" || r.ScreenshotHash == "" {
				t.Errorf("valid landing without URL/screenshot: %+v", r)
			}
		}
		if r.ShownAt.Before(r.RegisteredAt) {
			t.Errorf("record %d shown before registration", r.ID)
		}
		if r.ClickedAt.Before(r.ShownAt) {
			t.Errorf("record %d clicked before shown", r.ID)
		}
	}
	if valid == 0 {
		t.Fatal("no records with valid landing pages")
	}
	t.Logf("seeds=%d npr=%d containers=%d records=%d valid=%d additional=%d",
		len(res.SeedURLs), len(res.NPRURLs), res.Containers, len(res.Records), valid, len(res.AdditionalURLs))
}

func TestCrawlDeterministic(t *testing.T) {
	run := func() *crawler.Result {
		return crawl(t, newEco(t, 0.002), onDevice(browser.Desktop, false))
	}
	a, b := run(), run()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].Title != b.Records[i].Title || a.Records[i].SourceURL != b.Records[i].SourceURL {
			t.Fatalf("record %d differs: %q/%q vs %q/%q", i,
				a.Records[i].Title, a.Records[i].SourceURL, b.Records[i].Title, b.Records[i].SourceURL)
		}
	}
}

func TestMobileGetsMobileTailoredAds(t *testing.T) {
	eco := newEco(t, 0.004)
	res := crawl(t, eco, onDevice(browser.Mobile, true))
	if len(res.Records) == 0 {
		t.Fatal("mobile crawl collected nothing")
	}
	sawMobileOnly := false
	for _, r := range res.Records {
		if r.Device != "mobile" {
			t.Fatalf("record device = %q", r.Device)
		}
		if strings.Contains(r.Title, "Missed call") || strings.Contains(r.Title, "Voicemail") ||
			strings.Contains(r.Title, "package") || strings.Contains(r.Title, "WhatsApp") ||
			strings.Contains(r.Title, "delivery fee") || strings.Contains(r.Title, "friend request") {
			sawMobileOnly = true
		}
	}
	if !sawMobileOnly {
		t.Error("no mobile-tailored malicious messages observed on a physical device")
	}
}

func TestEmulatedMobileMissesRealDeviceCampaigns(t *testing.T) {
	eco := newEco(t, 0.004)
	res := crawl(t, eco, onDevice(browser.Mobile, false)) // emulator
	for _, r := range res.Records {
		if strings.Contains(r.Title, "Missed call") || strings.Contains(r.Title, "Voicemail waiting") {
			t.Errorf("emulator received real-device-only campaign: %q", r.Title)
		}
	}
}

func TestFirstNotificationLatency(t *testing.T) {
	// The §6.1.2 pilot: ~98% of first notifications within 15 minutes.
	eco := newEco(t, 0.004)
	res := crawl(t, eco, onDevice(browser.Desktop, false))
	firstBySource := map[string]time.Duration{}
	for _, r := range res.Records {
		d := r.ShownAt.Sub(r.RegisteredAt)
		if prev, ok := firstBySource[r.SourceURL]; !ok || d < prev {
			firstBySource[r.SourceURL] = d
		}
	}
	if len(firstBySource) < 5 {
		t.Skipf("too few sources (%d) for latency distribution", len(firstBySource))
	}
	within := 0
	for _, d := range firstBySource {
		if d <= 16*time.Minute { // small slack for click-delay advances
			within++
		}
	}
	frac := float64(within) / float64(len(firstBySource))
	if frac < 0.85 {
		t.Errorf("first-notification-within-15min fraction = %.2f, want >= 0.85", frac)
	}
}

func TestQueuedWhileSuspendedDelivered(t *testing.T) {
	// Messages scheduled long after the monitoring window must still be
	// collected via container resumes.
	eco := newEco(t, 0.002)
	res := crawl(t, eco, onDevice(browser.Desktop, false))
	late := 0
	for _, r := range res.Records {
		if r.ShownAt.Sub(r.RegisteredAt) > time.Hour {
			late++
		}
	}
	if late == 0 {
		t.Error("no late (queued) notifications collected; resume path untested")
	}
}
