package webeco

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/chaos"
	"pushadminer/internal/page"
)

func tinyConfig() Config {
	return Config{Seed: 42, Scale: 0.005}
}

func newEco(t *testing.T, cfg Config) *Ecosystem {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestWorkerCrashPlanOnlyWhenWorkersCanDie: the fleet makes shard state
// durable (a temp dir and an fsync'd file per dirty tick) whenever it
// is handed a worker crash plan, so the ecosystem hands one out only
// when its chaos profile can actually kill a worker.
func TestWorkerCrashPlanOnlyWhenWorkersCanDie(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof *chaos.Profile
		want bool
	}{
		{"no chaos", nil, false},
		{"workercrashes=0", &chaos.Profile{Seed: 1, Error5xxFraction: 0.1}, false},
		{"workercrashes=0.05", &chaos.Profile{Seed: 1, WorkerCrashFraction: 0.05}, true},
	} {
		cfg := tinyConfig()
		cfg.Chaos = tc.prof
		e := newEco(t, cfg)
		if got := e.WorkerCrashPlan() != nil; got != tc.want {
			t.Errorf("%s: WorkerCrashPlan set = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestScaledCounts(t *testing.T) {
	cfg := Config{Scale: 0.05}.WithDefaults()
	if got := cfg.scaled(0); got != 0 {
		t.Errorf("scaled(0) = %d", got)
	}
	if got := cfg.scaled(10); got != 1 {
		t.Errorf("scaled(10) = %d, want 1 (floor)", got)
	}
	if got := cfg.scaled(1000); got != 50 {
		t.Errorf("scaled(1000) = %d, want 50", got)
	}
}

func TestEcosystemDeterministic(t *testing.T) {
	a := newEco(t, tinyConfig())
	b := newEco(t, tinyConfig())
	ua, ub := a.SeedURLs(), b.SeedURLs()
	if len(ua) != len(ub) {
		t.Fatalf("seed URL counts differ: %d vs %d", len(ua), len(ub))
	}
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("seed URLs differ at %d: %s vs %s", i, ua[i], ub[i])
		}
	}
	if a.Truth().NumCampaigns() != b.Truth().NumCampaigns() {
		t.Error("campaign counts differ across identical seeds")
	}
}

func TestSeedURLCountsMatchScaledTable1(t *testing.T) {
	e := newEco(t, Config{Seed: 7, Scale: 0.01})
	for _, spec := range SeedNetworks {
		got := len(e.Search().Search(spec.Keyword))
		want := e.Cfg.scaled(spec.PaperURLs)
		if got != want {
			t.Errorf("%s: code search found %d URLs, want %d", spec.Name, got, want)
		}
	}
	for _, spec := range GenericKeywords {
		got := len(e.Search().Search(spec.Keyword))
		want := e.Cfg.scaled(spec.PaperURLs)
		if got < want {
			// Generic keywords may also appear in network-affiliated
			// generic sites; never fewer than the spec count.
			t.Errorf("%s: code search found %d URLs, want >= %d", spec.Keyword, got, want)
		}
	}
}

func TestNPRSitesSubsetOfSites(t *testing.T) {
	e := newEco(t, tinyConfig())
	nprs := 0
	for _, s := range e.Sites() {
		if s.NPR {
			nprs++
		}
	}
	if nprs == 0 {
		t.Fatal("no NPR sites generated")
	}
	if nprs >= len(e.Sites()) {
		t.Fatalf("all %d sites are NPR; most should not request permission", len(e.Sites()))
	}
}

func TestCampaignShapes(t *testing.T) {
	e := newEco(t, tinyConfig())
	truth := e.Truth()
	if truth.NumCampaigns() < 10 {
		t.Fatalf("campaigns = %d, want >= 10", truth.NumCampaigns())
	}
	mal, multi := 0, 0
	total := 0
	for _, an := range e.Networks() {
		for _, c := range an.Campaigns {
			total++
			if c.Category.Malicious {
				mal++
				if len(c.LandingDomains) < 2 {
					t.Errorf("malicious campaign %d has %d landing domains, want >= 2", c.ID, len(c.LandingDomains))
				}
			}
			if len(c.LandingDomains) > 1 {
				multi++
			}
			if len(c.Creatives) == 0 {
				t.Errorf("campaign %d has no creatives", c.ID)
			}
		}
	}
	frac := float64(mal) / float64(total)
	if frac < 0.3 || frac > 0.8 {
		t.Errorf("malicious campaign fraction = %.2f, want within paper-like band", frac)
	}
	if multi == 0 {
		t.Error("no multi-domain campaigns (duplicate ads signal missing)")
	}
}

func TestAdIDRoundTrip(t *testing.T) {
	c := &Campaign{ID: 17}
	id := c.AdID(2, 3, 12345)
	camp, cr, d, n, err := ParseAdID(id)
	if err != nil {
		t.Fatal(err)
	}
	if camp != 17 || cr != 2 || d != 3 || n != 12345 {
		t.Errorf("ParseAdID = %d %d %d %d", camp, cr, d, n)
	}
	if _, _, _, _, err := ParseAdID("garbage"); err == nil {
		t.Error("garbage ad id parsed")
	}
}

func TestLandingURLSharesPathAcrossDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := newNameGen(2)
	camp := newCampaign(1, "X", CategoryByName("sweepstakes"), gen, rng)
	if len(camp.LandingDomains) < 2 {
		t.Skip("campaign drew a single domain")
	}
	u0 := camp.LandingURL(0, rng)
	u1 := camp.LandingURL(1, rng)
	if strings.Contains(u1, camp.LandingDomains[0]) {
		t.Errorf("domain rotation failed: %s", u1)
	}
	p := camp.LandingPath()
	if !strings.Contains(u0, p) || !strings.Contains(u1, p) {
		t.Errorf("landing path %q not shared: %s / %s", p, u0, u1)
	}
}

func TestEligibility(t *testing.T) {
	camp := &Campaign{Category: CategoryByName("missedcall")}
	if camp.EligibleFor("desktop", false) {
		t.Error("mobile-only campaign eligible on desktop")
	}
	if camp.EligibleFor("mobile", false) {
		t.Error("real-device-only campaign eligible on emulator")
	}
	if !camp.EligibleFor("mobile", true) {
		t.Error("mobile campaign not eligible on physical device")
	}
	benign := &Campaign{Category: CategoryByName("shopping")}
	if !benign.EligibleFor("desktop", false) {
		t.Error("desktop campaign ineligible")
	}
}

func TestSchedulerOrderAndFlush(t *testing.T) {
	s := newScheduler(0)
	t0 := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	s.Schedule(t0.Add(2*time.Hour), "e2", []byte(`{}`))
	s.Schedule(t0.Add(1*time.Hour), "e1", []byte(`{}`))
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	at, ok := s.NextAt()
	if !ok || !at.Equal(t0.Add(time.Hour)) {
		t.Fatalf("NextAt = %v %v", at, ok)
	}
}

// TestOutageFlushCostsNoWallTime: a flush inside a push outage still
// makes all three attempts of every send and requeues each send for
// later, but its backoff between attempts waits no real time. A flush
// works at one simulated instant, so a wall-clock wait there could
// change nothing; with up to 50 ms per backoff, ten sends would sleep
// about a second.
func TestOutageFlushCostsNoWallTime(t *testing.T) {
	cfg := tinyConfig()
	cfg.Chaos = &chaos.Profile{Seed: 1, PushOutages: []chaos.Window{{Start: 0, Dur: time.Hour}}}
	e := newEco(t, cfg)
	sub := e.Push.Register("https://pub.test", "https://pub.test/sw.js")
	const sends = 10
	for i := 0; i < sends; i++ {
		e.adEco.Sched.Schedule(e.Clock.Now(), sub.Endpoint, []byte(`{}`))
	}
	start := time.Now()
	if n := e.Tick(); n != 0 {
		t.Fatalf("Tick delivered %d sends inside the outage", n)
	}
	elapsed := time.Since(start)
	if got := e.Chaos().Stats()["outage_503"]; got != 3*sends {
		t.Errorf("outage_503 = %d, want %d (3 attempts per send)", got, 3*sends)
	}
	if got := e.adEco.Sched.Retried(); got != sends {
		t.Errorf("scheduler requeued %d sends, want %d", got, sends)
	}
	if elapsed >= 250*time.Millisecond {
		t.Errorf("flush took %v of wall time, want under 250ms (a few ms without backoff waits; about 1s when every backoff sleeps)", elapsed)
	}
	t.Logf("flush took %v", elapsed)
}

func TestCategoriesWellFormed(t *testing.T) {
	for _, c := range Categories {
		if len(c.Titles) == 0 || len(c.Bodies) == 0 {
			t.Errorf("category %s missing templates", c.Name)
		}
		if c.LandingContent == "" || c.LandingTitle == "" {
			t.Errorf("category %s missing landing content", c.Name)
		}
		if len(c.PathTokens) == 0 {
			t.Errorf("category %s missing path tokens", c.Name)
		}
		if c.RealDeviceOnly && !c.MobileOnly {
			t.Errorf("category %s: RealDeviceOnly implies MobileOnly", c.Name)
		}
	}
}

func TestFillSlotsResolvesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range Categories {
		for _, tpl := range append(append([]string{}, c.Titles...), c.Bodies...) {
			out := fillSlots(tpl, rng)
			if strings.Contains(out, "{") {
				t.Errorf("unresolved slot in %q → %q", tpl, out)
			}
		}
	}
	for _, tpl := range append(append([]string{}, longtailTitles...), longtailBodies...) {
		if out := fillSlots(tpl, rng); strings.Contains(out, "{") {
			t.Errorf("unresolved slot in %q → %q", tpl, out)
		}
	}
}

func TestAlexaBuckets(t *testing.T) {
	a := NewAlexa()
	rng := rand.New(rand.NewSource(1))
	domains := make([]string, 3000)
	for i := range domains {
		domains[i] = strings.Repeat("a", 1+i%5) + "x.com"
		domains[i] = domains[i][:len(domains[i])-4] + string(rune('a'+i%26)) + domains[i][len(domains[i])-4:]
	}
	// Use unique names.
	for i := range domains {
		domains[i] = domainName(i)
		a.Assign(domains[i], rng, 0.36)
	}
	buckets, ranked := a.Bucketize(domains)
	frac := float64(ranked) / float64(len(domains))
	if frac < 0.30 || frac > 0.42 {
		t.Errorf("ranked fraction = %.3f, want ~0.36", frac)
	}
	sum := 0
	for _, b := range buckets {
		sum += b.Count
	}
	if sum != ranked {
		t.Errorf("bucket sum %d != ranked %d", sum, ranked)
	}
	// Log-uniform: later (wider) buckets hold more domains.
	if !(buckets[3].Count > buckets[0].Count) {
		t.Errorf("expected tail-heavy buckets, got %+v", buckets)
	}
}

func domainName(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return string([]byte{letters[i%26], letters[(i/26)%26], letters[(i/676)%26]}) + ".com"
}

func TestCodeSearch(t *testing.T) {
	cs := NewCodeSearch()
	cs.IndexPage("https://a.test/", []string{"onesignal-init v3", "other"})
	cs.IndexPage("https://b.test/", []string{"pushcrew-sdk"})
	if got := cs.Search("onesignal-init"); len(got) != 1 || got[0] != "https://a.test/" {
		t.Errorf("Search = %v", got)
	}
	if got := cs.Search("ONESIGNAL-INIT"); len(got) != 1 {
		t.Errorf("case-insensitive search failed: %v", got)
	}
	if got := cs.SearchAll([]string{"onesignal-init", "pushcrew-sdk"}); len(got) != 2 {
		t.Errorf("SearchAll = %v", got)
	}
	if cs.NumPages() != 2 {
		t.Errorf("NumPages = %d", cs.NumPages())
	}
}

func TestTruthOracle(t *testing.T) {
	e := newEco(t, tinyConfig())
	truth := e.Truth()
	// Find a malicious campaign and check its domains are flagged.
	found := false
	for _, an := range e.Networks() {
		for _, c := range an.Campaigns {
			if c.Category.Malicious {
				found = true
				for _, d := range c.LandingDomains {
					if !truth.IsMaliciousDomain(d) {
						t.Errorf("malicious campaign domain %s not in truth", d)
					}
					if !truth.IsMaliciousURL("https://" + d + "/any/path") {
						t.Errorf("URL on malicious domain not recognized")
					}
				}
			} else {
				for _, d := range c.LandingDomains {
					if truth.IsMaliciousDomain(d) {
						t.Errorf("benign campaign domain %s flagged", d)
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no malicious campaigns generated")
	}
}

func TestEasyListParses(t *testing.T) {
	e := newEco(t, tinyConfig())
	rules := e.EasyListRules()
	if len(rules) < 3 {
		t.Fatal("too few EasyList rules")
	}
}

func TestLandingHandlerServesCampaignContent(t *testing.T) {
	e := newEco(t, tinyConfig())
	var camp *Campaign
	for _, an := range e.Networks() {
		for _, c := range an.Campaigns {
			if c.Category.Malicious && len(c.LandingDomains) > 0 {
				camp = c
				break
			}
		}
		if camp != nil {
			break
		}
	}
	if camp == nil {
		t.Skip("no malicious campaign")
	}
	// Find a non-crashing path.
	var doc *page.Doc
	for i := 0; i < 50 && (doc == nil || doc.Crash); i++ {
		u := camp.LandingURL(0, rand.New(rand.NewSource(int64(i))))
		_, body := httpGet(t, e, u)
		var err error
		doc, err = page.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	if doc == nil || doc.Crash {
		t.Skip("every sampled landing URL crashes at this seed")
	}
	if doc.Title != camp.Category.LandingTitle {
		t.Errorf("landing title = %q, want %q", doc.Title, camp.Category.LandingTitle)
	}
	if !strings.Contains(doc.Content, camp.LandingDomains[0]) {
		t.Errorf("landing content missing domain: %q", doc.Content)
	}
}

func TestLandingCrashFractionRoughlyConfigured(t *testing.T) {
	e := newEco(t, tinyConfig())
	var camp *Campaign
	for _, an := range e.Networks() {
		for _, c := range an.Campaigns {
			if len(c.LandingDomains) > 0 {
				camp = c
				break
			}
		}
		if camp != nil {
			break
		}
	}
	crashes, total := 0, 300
	for i := 0; i < total; i++ {
		u := fmt.Sprintf("https://%s/probe/p%d.html", camp.LandingDomains[0], i)
		_, body := httpGet(t, e, u)
		doc, err := page.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Crash {
			crashes++
		}
	}
	frac := float64(crashes) / float64(total)
	want := crashFraction
	if frac < want/2 || frac > want*2 {
		t.Errorf("crash fraction = %.3f, configured %.3f", frac, want)
	}
}
