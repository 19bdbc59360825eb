package webeco

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"

	"pushadminer/internal/serviceworker"
	"pushadminer/internal/webpush"
)

// AdNetwork is one push ad network: its server host (subscription intake,
// ad decisioning, click tracking), CDN host (service worker script),
// tracking redirector, and campaign inventory.
type AdNetwork struct {
	Spec      NetworkSpec
	Slug      string
	Host      string // ad server
	CDNHost   string // serves sw.js
	TrackHost string // click-through redirector
	Campaigns []*Campaign

	eco *AdEcosystem
}

// AdEcosystem is the minimal surface an AdNetwork needs from the
// ecosystem; it keeps this file decoupled from ecosystem construction.
type AdEcosystem struct {
	Cfg      Config
	Truth    *Truth
	Sched    *scheduler
	Now      func() time.Time
	Longtail *longtailGen
	OnMalURL func(u string, firstSeen time.Time) // blocklist ground-truth hook

	// DormantFraction models web churn for revisit experiments: once
	// set, that fraction of origins stop scheduling pushes for new
	// subscriptions (the paper's April 2020 revisit found only 35 of
	// 300 sites still sending).
	DormantFraction float64

	// Evasion, when non-nil, lets malicious campaigns rotate burned
	// landing domains (§5.2's evasion behaviour).
	Evasion *EvasionController
}

// dormant reports whether an origin has gone dormant.
func (e *AdEcosystem) dormant(origin string) bool {
	if e.DormantFraction <= 0 {
		return false
	}
	return hashFrac(e.Cfg.Seed, "dormant|"+origin) < e.DormantFraction
}

func newAdNetwork(spec NetworkSpec, eco *AdEcosystem) *AdNetwork {
	s := slug(spec.Name)
	return &AdNetwork{
		Spec:      spec,
		Slug:      s,
		Host:      "ads." + s + ".net",
		CDNHost:   "cdn." + s + ".net",
		TrackHost: "trk." + s + ".net",
		eco:       eco,
	}
}

// SWURL returns the network's service worker script URL.
func (a *AdNetwork) SWURL() string { return "https://" + a.CDNHost + "/sw.js" }

// SubscribeURL returns the subscription intake endpoint.
func (a *AdNetwork) SubscribeURL() string { return "https://" + a.Host + "/subscribe" }

// TagKeyword returns the code-search signature of the network's embed
// tag.
func (a *AdNetwork) TagKeyword() string { return a.Spec.Keyword }

// Script builds the network's service worker program: resolve the ad
// from the ad server, show it; on click, fire the tracker and open the
// landing page (the behaviour PushAdMiner's instrumentation observed).
func (a *AdNetwork) Script() *serviceworker.Script {
	return &serviceworker.Script{
		URL: a.SWURL(),
		OnPush: []serviceworker.Op{
			{Do: serviceworker.OpFetch, URL: "https://" + a.Host + "/ad?id={{ad_id}}", SaveAs: "ad"},
			{Do: serviceworker.OpShowNotification, Notification: &webpush.Notification{
				Title: "{{ad.title}}", Body: "{{ad.body}}", Icon: "{{ad.icon}}", TargetURL: "{{ad.target}}",
			}},
		},
		OnClick: []serviceworker.Op{
			{Do: serviceworker.OpPostback, URL: "https://" + a.Host + "/click?t={{n.target_url}}"},
			{Do: serviceworker.OpOpenWindow, URL: "{{n.target_url}}"},
		},
	}
}

// CDNHandler serves the SW script.
func (a *AdNetwork) CDNHandler() http.Handler {
	src := a.Script().Source()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/sw.js" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/javascript")
		w.Write(src) //nolint:errcheck
	})
}

// TrackHandler redirects /r?u=<url> clicks to the landing page — the
// intermediate hop malicious chains route through.
func (a *AdNetwork) TrackHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/r" {
			http.NotFound(w, r)
			return
		}
		u := r.URL.Query().Get("u")
		if u == "" {
			http.Error(w, "missing u", http.StatusBadRequest)
			return
		}
		http.Redirect(w, r, u, http.StatusFound)
	})
}

// subscribeBody is the JSON the browser POSTs when announcing a new
// subscription.
type subscribeBody struct {
	Token    string `json:"token"`
	Endpoint string `json:"endpoint"`
	Origin   string `json:"origin"`
	Device   string `json:"device"`
	HW       string `json:"hw"`
	// Client is the browser instance's stable id; scheduling draws key
	// on it so each subscriber gets an independent but reproducible
	// push plan.
	Client string `json:"client"`
}

// schedKey returns the deterministic per-subscription scheduling key.
func (b subscribeBody) schedKey() string {
	return b.Origin + "|" + b.Device + "|" + b.HW + "|" + b.Client
}

// AdsHandler serves the network's ad-server endpoints.
func (a *AdNetwork) AdsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/subscribe":
			var sub subscribeBody
			if err := json.NewDecoder(r.Body).Decode(&sub); err != nil || sub.Token == "" {
				http.Error(w, "bad subscription", http.StatusBadRequest)
				return
			}
			returning := false
			if a.Tracks() {
				if _, err := r.Cookie("uid"); err == nil {
					returning = true
				} else {
					uid := fmt.Sprintf("u%x", subRNG(a.eco.Cfg.Seed, "uid|"+sub.schedKey()).Int63())
					http.SetCookie(w, &http.Cookie{Name: "uid", Value: uid, Path: "/"})
				}
			}
			a.scheduleSub(sub, returning)
			w.WriteHeader(http.StatusCreated)

		case r.URL.Path == "/ad":
			a.serveAd(w, r)

		case r.URL.Path == "/click":
			w.WriteHeader(http.StatusNoContent)

		case r.URL.Path == "/tag.js":
			w.Header().Set("Content-Type", "application/javascript")
			fmt.Fprintf(w, "/* %s push tag */", a.Spec.Keyword)

		default:
			http.NotFound(w, r)
		}
	})
}

// trackingNetworks use cookies to recognize a browser across sessions
// (§8): returning browsers are frequency-capped rather than treated as
// fresh subscribers. The crawler defeats this with one container (one
// cookie jar) per URL.
var trackingNetworks = map[string]bool{
	"Ad-Maven": true,
	"PopAds":   true,
	"AdsTerra": true,
}

// Tracks reports whether this network cookie-tracks browsers.
func (a *AdNetwork) Tracks() bool { return trackingNetworks[a.Spec.Name] }

// networkAdShare is the probability that a push from a network is a
// third-party ad rather than a site-authored alert. Engagement platforms
// (OneSignal, PushEngage, iZooto, PushCrew) mostly relay publishers' own
// notifications; pop/push monetization networks are almost all ads.
var networkAdShare = map[string]float64{
	"OneSignal":  0.15,
	"PushCrew":   0.30,
	"PushEngage": 0.25,
	"iZooto":     0.30,
	"PubMatic":   0.60,
	"Criteo":     0.50,
}

func (a *AdNetwork) adShare() float64 {
	if s, ok := networkAdShare[a.Spec.Name]; ok {
		return s
	}
	return 0.92
}

// subRNG derives a deterministic RNG from the ecosystem seed and a key,
// so scheduling does not depend on map-iteration or arrival order.
func subRNG(seed int64, key string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// scheduleFor plans the pushes a new subscription will receive; see
// scheduleSub.
func (a *AdNetwork) scheduleFor(sub subscribeBody) { a.scheduleSub(sub, false) }

// scheduleSub plans the pushes a new subscription will receive over the
// collection window: 98% of first notifications within
// firstPushWithin, the rest up to latePushMax later (§6.1.2), and
// a mix of campaign ads and long-tail one-off ads. A returning
// (cookie-recognized) browser is frequency-capped to a single push.
func (a *AdNetwork) scheduleSub(sub subscribeBody, returning bool) {
	if a.eco.dormant(sub.Origin) {
		return
	}
	cfg := a.eco.Cfg
	rng := subRNG(cfg.Seed, "sched|"+a.Slug+"|"+sub.schedKey())
	now := a.eco.Now()

	n := pushesPerSubMin + rng.Intn(pushesPerSubMax-pushesPerSubMin+1)
	if returning {
		n = 1 // frequency cap for recognized browsers
	}
	eligible := a.eligibleCampaigns(sub.Device, sub.HW == "physical")
	if len(eligible) == 0 {
		return
	}
	at := now
	for i := 0; i < n; i++ {
		if i == 0 {
			if rng.Float64() < 0.98 {
				at = now.Add(time.Duration(rng.Int63n(int64(firstPushWithin))))
			} else {
				at = now.Add(firstPushWithin + time.Duration(rng.Int63n(int64(latePushMax))))
			}
		} else {
			// Subsequent pushes: hours to a couple of days apart.
			at = at.Add(2*time.Hour + time.Duration(rng.Int63n(int64(46*time.Hour))))
		}
		var adID string
		switch {
		case rng.Float64() >= a.adShare() && !a.eco.Truth.IsMaliciousDomain(originDomain(sub.Origin)):
			// Site-authored alert relayed by the network: not an ad.
			// Scam landing pages that recruited this subscription author
			// no alerts of their own — they only push more ads.
			adID = alertAdID(originDomain(sub.Origin), rng.Intn(1<<30))
		case rng.Float64() < 0.45:
			// Long-tail one-off ad reusing a campaign's landing domain
			// (the singleton WPNs that meta-clustering later reconnects).
			camp := pickWeighted(eligible, rng)
			adID = a.eco.Longtail.NewAdID(camp, rng)
		default:
			camp := pickWeighted(eligible, rng)
			adID = camp.AdID(rng.Intn(len(camp.Creatives)), rng.Intn(len(camp.LandingDomains)), rng.Intn(1<<30))
		}
		payload := webpush.EncodePayload(webpush.Payload{AdID: adID, CampaignHint: a.Slug})
		a.eco.Sched.Schedule(at, sub.Endpoint, payload)
	}
}

func (a *AdNetwork) eligibleCampaigns(device string, physical bool) []*Campaign {
	var out []*Campaign
	for _, c := range a.Campaigns {
		if c.EligibleFor(device, physical) {
			out = append(out, c)
		}
	}
	return out
}

func pickWeighted(cs []*Campaign, rng *rand.Rand) *Campaign {
	total := 0
	for _, c := range cs {
		total += c.Weight
	}
	x := rng.Intn(total)
	for _, c := range cs {
		x -= c.Weight
		if x < 0 {
			return c
		}
	}
	return cs[len(cs)-1]
}

// alertAdID encodes a site-authored alert for the given source domain.
func alertAdID(domain string, nonce int) string {
	return fmt.Sprintf("al.%s.n%d", domain, nonce)
}

// parseAlertAdID decodes an alert ad id into (domain, nonce).
func parseAlertAdID(id string) (string, int, error) {
	rest := strings.TrimPrefix(id, "al.")
	i := strings.LastIndex(rest, ".n")
	if i <= 0 {
		return "", 0, fmt.Errorf("webeco: bad alert ad id %q", id)
	}
	var nonce int
	if _, err := fmt.Sscanf(rest[i+2:], "%d", &nonce); err != nil {
		return "", 0, fmt.Errorf("webeco: bad alert ad id %q: %w", id, err)
	}
	return rest[:i], nonce, nil
}

// originDomain strips a scheme from an origin string.
func originDomain(origin string) string {
	s := strings.TrimPrefix(origin, "https://")
	return strings.TrimPrefix(s, "http://")
}

// alertCategories are the site-authored notification flavours, weighted.
var alertCategories = []struct {
	name   string
	weight int
}{
	{"news", 55}, {"weather", 18}, {"bankalert", 7}, {"welcome", 12}, {"horoscope", 8},
}

// buildAlert generates a site alert creative for the given domain,
// deterministic per ad id.
func (a *AdNetwork) buildAlert(id, domain string) adResponse {
	// The site's content flavour is a stable property of the site.
	catName := alertCategories[0].name
	x := hashFrac(a.eco.Cfg.Seed, "catw|"+domain) * float64(totalAlertWeight())
	for _, ac := range alertCategories {
		x -= float64(ac.weight)
		if x < 0 {
			catName = ac.name
			break
		}
	}
	cat := CategoryByName(catName)
	rng := subRNG(a.eco.Cfg.Seed, "alert|"+id)
	resp := adResponse{
		Title: fillSlots(cat.Titles[rng.Intn(len(cat.Titles))], rng),
		Body:  fillSlots(cat.Bodies[rng.Intn(len(cat.Bodies))], rng),
		Icon:  fmt.Sprintf("https://%s/icon.png", domain),
	}
	if catName == "news" {
		// Compose a near-unique headline; real news tails are diverse.
		resp.Title = composeHeadline(rng)
	}
	if rng.Float64() >= noTargetFraction {
		resp.Target = fmt.Sprintf("https://%s/%s/a%d.html?id=%d",
			domain, joinPath(cat.PathTokens), rng.Intn(1<<20), rng.Intn(1<<20))
	}
	return resp
}

func totalAlertWeight() int {
	t := 0
	for _, ac := range alertCategories {
		t += ac.weight
	}
	return t
}

// adResponse is the creative JSON the SW fetches.
type adResponse struct {
	Title  string `json:"title"`
	Body   string `json:"body"`
	Icon   string `json:"icon"`
	Target string `json:"target"`
}

// serveAd decisions an ad id into a concrete creative and landing URL,
// registering ground truth (and blocklist exposure) as a side effect.
func (a *AdNetwork) serveAd(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	var resp adResponse
	var truth AdTruth
	var landing string

	switch {
	case strings.HasPrefix(id, "al."):
		domain, _, err := parseAlertAdID(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp = a.buildAlert(id, domain)
		truth = AdTruth{Network: a.Spec.Name, Category: "alert", IsAd: false}
		landing = ""

	case strings.HasPrefix(id, "lt."):
		lt, err := a.eco.Longtail.Resolve(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		resp = adResponse{Title: lt.Title, Body: lt.Body, Icon: lt.Icon, Target: lt.Target}
		landing = lt.Landing
		truth = AdTruth{CampaignID: lt.CampaignID, Network: a.Spec.Name, Category: "longtail", Malicious: lt.Malicious, IsAd: true}

	default:
		campID, creativeIdx, domainIdx, nonce, err := ParseAdID(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		camp, ok := a.eco.Truth.Campaign(campID)
		if !ok {
			http.Error(w, "unknown campaign", http.StatusNotFound)
			return
		}
		cr := camp.Creatives[creativeIdx%len(camp.Creatives)]
		domain := camp.LandingDomainAt(domainIdx)
		if a.eco.Evasion != nil {
			domain = a.eco.Evasion.ResolveDomain(camp, domain, a.eco.Now())
		}
		landing = camp.LandingURLOn(domain, subRNG(a.eco.Cfg.Seed, id))
		target := landing
		if camp.UseRedirector {
			target = fmt.Sprintf("https://%s/r?u=%s", a.TrackHost, url.QueryEscape(landing))
		}
		_ = nonce
		resp = adResponse{Title: cr.Title, Body: cr.Body, Icon: cr.Icon, Target: target}
		truth = AdTruth{CampaignID: campID, Network: a.Spec.Name, Category: camp.Category.Name, Malicious: camp.Category.Malicious, IsAd: true}
	}

	a.eco.Truth.registerAd(id, truth, landing)
	if truth.Malicious && landing != "" && a.eco.OnMalURL != nil {
		a.eco.OnMalURL(landing, a.eco.Now())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck
}
