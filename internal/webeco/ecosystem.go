package webeco

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"pushadminer/internal/blocklist"
	"pushadminer/internal/chaos"
	"pushadminer/internal/fcm"
	"pushadminer/internal/page"
	"pushadminer/internal/simclock"
	"pushadminer/internal/vnet"
)

// Site is one generated website in the synthetic web.
type Site struct {
	Domain  string
	URL     string
	Network string // ad network name, or "" for generic/self sites
	Keyword string // the code-search keyword that finds it
	NPR     bool   // requests notification permission
	Self    *SelfSite
}

// Ecosystem is the fully assembled synthetic web.
type Ecosystem struct {
	Cfg   Config
	Net   *vnet.Network
	Push  *fcm.Service
	Clock *simclock.Simulated
	VT    *blocklist.Service
	GSB   *blocklist.Service

	fcmClient       *fcm.Client
	adEco           *AdEcosystem
	networks        []*AdNetwork
	sites           []*Site
	search          *CodeSearch
	alexa           *Alexa
	campaignCounter int
	chaos           *chaos.Injector
}

// New generates and serves an ecosystem from cfg. It cannot fail: the
// error result is always nil, kept so existing callers need not change.
func New(cfg Config) (*Ecosystem, error) {
	cfg = cfg.WithDefaults()
	net := vnet.New()
	vtCfg := blocklist.VTDefault()
	if cfg.VTOverride != nil {
		vtCfg = *cfg.VTOverride
	}
	e := &Ecosystem{
		Cfg:    cfg,
		Net:    net,
		Push:   fcm.New(""),
		Clock:  simclock.NewSimulated(epoch),
		VT:     blocklist.New(vtCfg),
		GSB:    blocklist.New(blocklist.GSBDefault()),
		search: NewCodeSearch(),
		alexa:  NewAlexa(),
	}
	if cfg.Chaos != nil && cfg.Chaos.Enabled() {
		prof := *cfg.Chaos
		if prof.Seed == 0 {
			prof.Seed = cfg.Seed ^ 0x0c4a05 // decorrelate from generation draws
		}
		if prof.PushHost == "" {
			prof.PushHost = fcm.DefaultHost
		}
		e.chaos = chaos.NewInjector(prof, e.Clock.Now, epoch)
		net.SetMiddleware(e.chaos.Middleware)
		net.SetTransportWrapper(e.chaos.WrapTransport)
	}
	if cfg.Telemetry != nil {
		// Attach before any client exists: the ecosystem's own push
		// client (created next) carries scheduler traffic that must be
		// counted for chaos/retry reconciliation.
		net.AttachMetrics(cfg.Telemetry)
		e.chaos.AttachMetrics(cfg.Telemetry)
	}
	// The ecosystem's own push client carries a fixed identity so fault
	// draws against scheduler traffic are stable.
	e.fcmClient = fcm.NewClientWith(chaos.TagClient(net.Client(), "ecosystem"), "", nil)
	net.Handle(fcm.DefaultHost, e.Push)

	e.adEco = &AdEcosystem{
		Cfg:      cfg,
		Truth:    newTruth(),
		Sched:    newScheduler(cfg.FlushWorkers),
		Now:      e.Clock.Now,
		Longtail: newLongtailGen(cfg.Seed),
		OnMalURL: func(u string, firstSeen time.Time) {
			e.VT.MarkMalicious(u, firstSeen)
			e.GSB.MarkMalicious(u, firstSeen)
			// Blocklists aggregate per path as well: the canonical
			// query-less URL is what operators probe to learn whether a
			// domain has burned.
			if i := strings.IndexByte(u, '?'); i > 0 {
				e.VT.MarkMalicious(u[:i], firstSeen)
				e.GSB.MarkMalicious(u[:i], firstSeen)
			}
		},
	}

	if cfg.EvasionEnabled {
		e.adEco.Evasion = e.newEvasion()
	}

	gen := newNameGen(cfg.Seed ^ 0x5eed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	e.buildNetworks(gen, rng)
	e.buildPublisherSites(gen, rng)
	e.buildGenericSites(gen, rng)
	e.buildFallback()
	e.assignAlexaRanks(rng)
	return e, nil
}

// Close shuts the ecosystem's network down.
func (e *Ecosystem) Close() error { return e.Net.Close() }

// Truth returns the evaluation oracle.
func (e *Ecosystem) Truth() *Truth { return e.adEco.Truth }

// Search returns the code-search engine.
func (e *Ecosystem) Search() *CodeSearch { return e.search }

// Alexa returns the popularity ranking.
func (e *Ecosystem) Alexa() *Alexa { return e.alexa }

// Networks returns the generated ad networks.
func (e *Ecosystem) Networks() []*AdNetwork { return e.networks }

// Sites returns all generated sites.
func (e *Ecosystem) Sites() []*Site { return e.sites }

// SeedKeywords returns the 19 search keywords of §6.1.1: the 15 ad
// network signatures plus the 4 generic push keywords.
func (e *Ecosystem) SeedKeywords() []string {
	var out []string
	for _, n := range SeedNetworks {
		out = append(out, n.Keyword)
	}
	for _, g := range GenericKeywords {
		out = append(out, g.Keyword)
	}
	return out
}

// SeedURLs runs the code search over all seed keywords, the crawl's
// starting URL list.
func (e *Ecosystem) SeedURLs() []string {
	return e.search.SearchAll(e.SeedKeywords())
}

// Tick flushes every push delivery due at the current simulated time and
// returns how many were delivered.
func (e *Ecosystem) Tick() int {
	n, _ := e.adEco.Sched.Flush(e.Clock.Now(), e.fcmClient)
	return n
}

// NextPushAt returns the next scheduled delivery time.
func (e *Ecosystem) NextPushAt() (time.Time, bool) { return e.adEco.Sched.NextAt() }

// PendingPushes reports deliveries not yet flushed.
func (e *Ecosystem) PendingPushes() int { return e.adEco.Sched.Pending() }

// Chaos returns the fault injector, or nil when the ecosystem runs
// fault-free.
func (e *Ecosystem) Chaos() *chaos.Injector { return e.chaos }

// FaultCounts snapshots every fault and loss counter the ecosystem
// tracks: injector stats, push sends retried/abandoned by the
// scheduler, and messages collapsed out of full push-service queues.
// The crawler folds this into its Degradation report.
func (e *Ecosystem) FaultCounts() map[string]int {
	out := make(map[string]int)
	if e.chaos != nil {
		for k, v := range e.chaos.Stats() {
			out["chaos_"+k] = v
		}
	}
	if n := e.adEco.Sched.Retried(); n > 0 {
		out["push_send_retries"] = n
	}
	if n := e.adEco.Sched.Dropped(); n > 0 {
		out["push_sends_abandoned"] = n
	}
	if n := e.Push.Dropped(); n > 0 {
		out["push_queue_collapsed"] = n
	}
	return out
}

// CrashPlan returns the chaos-driven container crash schedule for the
// crawler, or nil when chaos is off.
func (e *Ecosystem) CrashPlan() func(clientID string, cycle int) bool {
	if e.chaos == nil {
		return nil
	}
	return e.chaos.ShouldCrashContainer
}

// newEvasion wires the evasion controller to this ecosystem: operators
// probe the simulated VirusTotal, replacement domains are deterministic
// per campaign, and fresh domains are mounted and recorded as malicious
// ground truth.
func (e *Ecosystem) newEvasion() *EvasionController {
	ec := NewEvasionController()
	ec.Probe = func(url string, now time.Time) bool {
		return e.VT.Lookup(url, now).Malicious || e.GSB.Lookup(url, now).Malicious
	}
	ec.Fresh = func(campaignID, n int) string {
		rng := subRNG(e.Cfg.Seed, fmt.Sprintf("evade|%d|%d", campaignID, n))
		return fmt.Sprintf("%s-%s%d.icu",
			landingWords[rng.Intn(len(landingWords))],
			landingWords[rng.Intn(len(landingWords))],
			1000+rng.Intn(9000))
	}
	ec.Mount = func(camp *Campaign, domain string) {
		e.Net.Handle(domain, e.landingHandler(camp, domain))
	}
	ec.OnRotate = func(camp *Campaign, burned, fresh string) {
		e.adEco.Truth.addMaliciousDomain(fresh)
	}
	return ec
}

// Evasion returns the evasion controller, or nil when disabled.
func (e *Ecosystem) Evasion() *EvasionController { return e.adEco.Evasion }

// SetDormancy makes the given fraction of origins stop scheduling pushes
// for new subscriptions — the web-churn model behind the paper's April
// 2020 revisit, where only 35 of 300 previously active sites still sent
// notifications. It affects only future subscriptions.
func (e *Ecosystem) SetDormancy(fraction float64) { e.adEco.DormantFraction = fraction }

// --- generation ---

var adCategoryWeights = []struct {
	name   string
	weight int
}{
	// Malicious ad categories.
	{"sweepstakes", 6}, {"techsupport", 4}, {"fakealert", 5}, {"scareware", 3},
	{"lottery", 2}, {"missedcall", 2}, {"fakedelivery", 2}, {"spoofchat", 2},
	// Benign ad categories.
	{"shopping", 5}, {"vpnapp", 3}, {"jobs", 4}, {"horoscope", 2},
	{"streaming", 4}, {"adult", 1},
}

func (e *Ecosystem) buildNetworks(gen *nameGen, rng *rand.Rand) {
	for _, spec := range SeedNetworks {
		an := newAdNetwork(spec, e.adEco)
		// Campaign inventory scales with the network's NPR share
		// (≈0.1 campaigns per NPR URL at paper scale, §6.3.1's 572 /
		// 5,849).
		nCamp := e.Cfg.scaled(spec.PaperNPRs) / 10
		if nCamp < 2 {
			nCamp = 2
		}
		// Each network leans more or less malicious; all are abused to
		// some degree (Figure 6). The band is tuned so ~51% of observed
		// WPN ads end up malicious, Table 3's headline.
		propensity := 0.20 + 0.38*rng.Float64()
		for i := 0; i < nCamp; i++ {
			cat := pickAdCategory(rng, propensity)
			camp := newCampaign(e.nextCampaignID(), spec.Name, cat, gen, rng)
			an.Campaigns = append(an.Campaigns, camp)
			e.adEco.Truth.registerCampaign(camp)
			e.mountCampaignLandings(camp)
		}
		// Networks with a sizable subscriber base always run at least
		// one mobile-tailored campaign (§6.1.3 found these across the
		// major push networks).
		if e.Cfg.scaled(spec.PaperNPRs) >= 5 {
			mobileCats := []string{"missedcall", "fakedelivery", "spoofchat"}
			cat := CategoryByName(mobileCats[rng.Intn(len(mobileCats))])
			camp := newCampaign(e.nextCampaignID(), spec.Name, cat, gen, rng)
			// Mobile bait was prominent in the paper's mobile dataset;
			// weight it so physical-device crawls reliably observe it.
			camp.Weight = 3
			an.Campaigns = append(an.Campaigns, camp)
			e.adEco.Truth.registerCampaign(camp)
			e.mountCampaignLandings(camp)
		}
		e.Net.Handle(an.Host, an.AdsHandler())
		e.Net.Handle(an.CDNHost, an.CDNHandler())
		e.Net.Handle(an.TrackHost, an.TrackHandler())
		e.networks = append(e.networks, an)
	}
}

func (e *Ecosystem) nextCampaignID() int {
	e.campaignCounter++
	return e.campaignCounter
}

func pickAdCategory(rng *rand.Rand, maliciousPropensity float64) Category {
	wantMal := rng.Float64() < maliciousPropensity
	for {
		total := 0
		for _, cw := range adCategoryWeights {
			total += cw.weight
		}
		x := rng.Intn(total)
		for _, cw := range adCategoryWeights {
			x -= cw.weight
			if x < 0 {
				cat := CategoryByName(cw.name)
				if cat.Malicious == wantMal {
					return cat
				}
				break
			}
		}
	}
}

// mountCampaignLandings serves the campaign's landing domains. Any path
// on the domain renders the campaign's landing content; a deterministic
// fraction of URLs crash the tab, and some malicious landing pages
// themselves ask for notification permission (recruiting more
// subscriptions — the "additional URLs" of §6.2).
func (e *Ecosystem) mountCampaignLandings(camp *Campaign) {
	for _, domain := range camp.LandingDomains {
		domain := domain
		e.Net.Handle(domain, e.landingHandler(camp, domain))
	}
}

func (e *Ecosystem) landingHandler(camp *Campaign, domain string) http.Handler {
	var network *AdNetwork // resolved lazily: networks build after campaigns exist
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		full := "https://" + domain + r.URL.RequestURI()
		doc := &page.Doc{
			Title:   camp.Category.LandingTitle,
			Content: camp.Category.LandingContent + " " + domain,
		}
		if hashFrac(e.Cfg.Seed, "crash|"+full) < crashFraction {
			doc.Crash = true
		} else if camp.Category.Malicious &&
			hashFrac(e.Cfg.Seed, "resub|"+domain+r.URL.Path) < landingSubscribeFraction {
			if network == nil {
				network = e.networkByName(camp.Network)
			}
			if network != nil {
				doc.RequestsNotification = true
				doc.SWURL = network.SWURL()
				doc.SubscribeURL = network.SubscribeURL()
				doc.Scripts = []string{network.TagKeyword()}
			}
		}
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	})
}

func (e *Ecosystem) networkByName(name string) *AdNetwork {
	for _, n := range e.networks {
		if n.Spec.Name == name {
			return n
		}
	}
	return nil
}

// hashFrac maps a key to a deterministic uniform value in [0, 1).
func hashFrac(seed int64, key string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// buildPublisherSites creates, for each ad network, the Table-1-scaled
// population of sites embedding its tag, the NPR subset of which
// actually request notification permission.
func (e *Ecosystem) buildPublisherSites(gen *nameGen, rng *rand.Rand) {
	for _, an := range e.networks {
		urls := e.Cfg.scaled(an.Spec.PaperURLs)
		nprs := e.Cfg.scaled(an.Spec.PaperNPRs)
		if nprs > urls {
			nprs = urls
		}
		for i := 0; i < urls; i++ {
			domain := gen.domain()
			npr := i < nprs
			doc := &page.Doc{
				Title:   domain,
				Content: "publisher content on " + domain,
				Scripts: []string{
					fmt.Sprintf("<script src=https://%s/tag.js></script>", an.Host),
					an.TagKeyword(),
				},
			}
			if npr {
				doc.RequestsNotification = true
				doc.DoublePermission = rng.Float64() < e.Cfg.DoublePermissionFraction
				doc.SWURL = an.SWURL()
				doc.SubscribeURL = an.SubscribeURL()
			}
			e.mountStaticSite(domain, doc)
			site := &Site{
				Domain: domain, URL: "https://" + domain + "/",
				Network: an.Spec.Name, Keyword: an.TagKeyword(), NPR: npr,
			}
			e.sites = append(e.sites, site)
			e.search.IndexPage(site.URL, doc.Scripts)
		}
	}
}

// selfCategoryWeights decide what kind of self-notifier a generic NPR
// site is.
var selfCategoryWeights = []struct {
	name      string
	weight    int
	malicious bool // self-operated malicious pusher with external landings
}{
	{"news", 42, false}, {"weather", 14, false}, {"bankalert", 6, false},
	{"welcome", 10, false}, {"horoscope", 8, false},
	{"techsupport", 6, true}, {"sweepstakes", 8, true}, {"fakealert", 6, true},
}

// buildGenericSites creates the sites found via the 4 generic push
// keywords: mostly self-notifiers, plus a minority embedding some ad
// network's tag anyway.
func (e *Ecosystem) buildGenericSites(gen *nameGen, rng *rand.Rand) {
	for _, spec := range GenericKeywords {
		urls := e.Cfg.scaled(spec.PaperURLs)
		nprs := e.Cfg.scaled(spec.PaperNPRs)
		if nprs > urls {
			nprs = urls
		}
		for i := 0; i < urls; i++ {
			domain := gen.domain()
			npr := i < nprs
			site := &Site{Domain: domain, URL: "https://" + domain + "/", Keyword: spec.Keyword, NPR: npr}
			switch {
			case !npr:
				doc := &page.Doc{
					Title: domain, Content: "site with push code but no prompt",
					Scripts: []string{spec.Keyword, "navigator.serviceWorker.register"},
				}
				e.mountStaticSite(domain, doc)
				e.search.IndexPage(site.URL, doc.Scripts)

			case spec.Keyword == "adsblockkpushcom" || rng.Float64() < 0.25:
				// Generic-keyword site that actually monetizes via an ad
				// network.
				an := e.networks[rng.Intn(len(e.networks))]
				doc := &page.Doc{
					Title: domain, Content: "publisher via generic integration",
					Scripts:              []string{spec.Keyword},
					RequestsNotification: true,
					DoublePermission:     rng.Float64() < e.Cfg.DoublePermissionFraction,
					SWURL:                an.SWURL(),
					SubscribeURL:         an.SubscribeURL(),
				}
				e.mountStaticSite(domain, doc)
				site.Network = an.Spec.Name
				e.search.IndexPage(site.URL, doc.Scripts)

			default:
				// Self-notifier.
				sc := pickSelfCategory(rng)
				self := &SelfSite{Domain: domain, Category: CategoryByName(sc.name), eco: e.adEco}
				if sc.malicious {
					nd := 1 + rng.Intn(2)
					for j := 0; j < nd; j++ {
						ext := gen.landingDomain()
						self.ExternalLanding = append(self.ExternalLanding, ext)
						e.mountScamLanding(ext, self.Category)
					}
				}
				dp := rng.Float64() < e.Cfg.DoublePermissionFraction
				e.Net.Handle(domain, self.Handler(spec.Keyword, dp))
				site.Self = self
				e.search.IndexPage(site.URL, []string{spec.Keyword, "self-push loader"})
			}
			e.sites = append(e.sites, site)
		}
	}
}

func pickSelfCategory(rng *rand.Rand) struct {
	name      string
	weight    int
	malicious bool
} {
	total := 0
	for _, sc := range selfCategoryWeights {
		total += sc.weight
	}
	x := rng.Intn(total)
	for _, sc := range selfCategoryWeights {
		x -= sc.weight
		if x < 0 {
			return sc
		}
	}
	return selfCategoryWeights[0]
}

// mountScamLanding serves an external scam domain used by a malicious
// self site.
func (e *Ecosystem) mountScamLanding(domain string, cat Category) {
	e.Net.Handle(domain, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		full := "https://" + domain + r.URL.RequestURI()
		doc := &page.Doc{Title: cat.LandingTitle, Content: cat.LandingContent + " " + domain}
		if hashFrac(e.Cfg.Seed, "crash|"+full) < crashFraction {
			doc.Crash = true
		}
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	}))
}

func (e *Ecosystem) mountStaticSite(domain string, doc *page.Doc) {
	body := doc.Encode()
	e.Net.Handle(domain, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", page.ContentType)
		if r.URL.Path == "/" {
			w.Write(body) //nolint:errcheck
			return
		}
		// Article/content pages on the same origin (site-alert landing
		// targets). They never re-request permission.
		article := &page.Doc{
			Title:   doc.Title + " — article",
			Content: "article content on " + domain + r.URL.Path,
		}
		w.Write(article.Encode()) //nolint:errcheck
	}))
}

// buildFallback serves a bland page for any unknown host, standing in
// for the rest of the internet.
func (e *Ecosystem) buildFallback() {
	e.Net.SetFallback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host := r.Host
		if i := strings.IndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		doc := &page.Doc{Title: host, Content: "generic page on " + host}
		w.Header().Set("Content-Type", page.ContentType)
		w.Write(doc.Encode()) //nolint:errcheck
	}))
}

// assignAlexaRanks gives NPR domains a 36% chance of a top-1M rank
// (2,040 of 5,697 in the paper) and other domains a lower one.
func (e *Ecosystem) assignAlexaRanks(rng *rand.Rand) {
	for _, s := range e.sites {
		p := 0.10
		if s.NPR {
			p = 0.36
		}
		e.alexa.Assign(s.Domain, rng, p)
	}
}

// EasyListRules returns the EasyList-like filter snapshot used by the
// Table 6 experiment: it names a couple of the long-known pop/ad hosts
// but predates push-ad infrastructure, so it matches only a small
// fraction of SW ad traffic (<2% in the paper).
func (e *Ecosystem) EasyListRules() []string {
	return []string{
		"! Simulated EasyList snapshot (2019)",
		"||ads.adsterra.net^",
		"||ads.propellerads.net^$third-party",
		"||ads.hilltopads.net^",
		"/adserve/*",
		"/banner-rotate/",
		"||doubleclick.simpush.test^",
	}
}
