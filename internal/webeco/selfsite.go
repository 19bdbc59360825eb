package webeco

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"pushadminer/internal/page"
	"pushadminer/internal/serviceworker"
	"pushadminer/internal/webpush"
)

// SelfSite is a website that runs its own push notifications rather than
// embedding an ad network: the news/weather/bank alert senders the paper
// finds in non-ad clusters, the welcome-message senders, and the
// occasional self-operated malicious pusher (the aurolog[.]ru motivating
// example).
type SelfSite struct {
	Domain   string
	Category Category
	// Malicious self sites send victims to external scam domains.
	ExternalLanding []string

	eco *AdEcosystem
}

// URL returns the site's front page URL.
func (s *SelfSite) URL() string { return "https://" + s.Domain + "/" }

// Doc builds the site's front page.
func (s *SelfSite) Doc(keyword string, doublePermission bool) *page.Doc {
	return &page.Doc{
		Title:                s.Domain,
		Content:              "homepage of " + s.Domain,
		Scripts:              []string{"self-push loader", keyword},
		RequestsNotification: true,
		DoublePermission:     doublePermission,
		SWURL:                "https://" + s.Domain + "/sw.js",
		SubscribeURL:         "https://" + s.Domain + "/subscribe",
	}
}

// Handler serves the site: front page, its own (default-behaviour)
// service worker, subscription intake, and same-origin article pages.
func (s *SelfSite) Handler(keyword string, doublePermission bool) http.Handler {
	docBytes := s.Doc(keyword, doublePermission).Encode()
	swBytes := (&serviceworker.Script{URL: "https://" + s.Domain + "/sw.js"}).Source()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/":
			w.Header().Set("Content-Type", page.ContentType)
			w.Write(docBytes) //nolint:errcheck
		case r.URL.Path == "/sw.js":
			w.Header().Set("Content-Type", "application/javascript")
			w.Write(swBytes) //nolint:errcheck
		case r.Method == http.MethodPost && r.URL.Path == "/subscribe":
			var sub subscribeBody
			if err := json.NewDecoder(r.Body).Decode(&sub); err != nil || sub.Token == "" {
				http.Error(w, "bad subscription", http.StatusBadRequest)
				return
			}
			s.scheduleFor(sub)
			w.WriteHeader(http.StatusCreated)
		default:
			// Same-origin article/landing pages.
			doc := &page.Doc{
				Title:   s.Category.LandingTitle,
				Content: s.Category.LandingContent,
			}
			w.Header().Set("Content-Type", page.ContentType)
			w.Write(doc.Encode()) //nolint:errcheck
		}
	})
}

// scheduleFor plans this site's notifications for a new subscriber.
// Unlike ad networks, the payload embeds the full notification (the SW
// uses the default push handler), and targets point back at the site's
// own origin — except for malicious self sites, which send victims to
// their external landing domains.
func (s *SelfSite) scheduleFor(sub subscribeBody) {
	if s.eco.dormant(sub.Origin) {
		return
	}
	cfg := s.eco.Cfg
	rng := subRNG(cfg.Seed, "self|"+s.Domain+"|"+sub.schedKey())
	now := s.eco.Now()

	n := pushesPerSubMin + rng.Intn(pushesPerSubMax-pushesPerSubMin+1)
	at := now
	for i := 0; i < n; i++ {
		if i == 0 {
			if rng.Float64() < 0.98 {
				at = now.Add(time.Duration(rng.Int63n(int64(firstPushWithin))))
			} else {
				at = now.Add(firstPushWithin + time.Duration(rng.Int63n(int64(latePushMax))))
			}
		} else {
			at = at.Add(4*time.Hour + time.Duration(rng.Int63n(int64(72*time.Hour))))
		}
		notif := s.buildNotification(rng)
		payload := webpush.EncodePayload(webpush.Payload{Notification: &notif})
		s.eco.Sched.Schedule(at, sub.Endpoint, payload)
	}
}

func (s *SelfSite) buildNotification(rng *rand.Rand) webpush.Notification {
	cat := s.Category
	title := fillSlots(cat.Titles[rng.Intn(len(cat.Titles))], rng)
	body := fillSlots(cat.Bodies[rng.Intn(len(cat.Bodies))], rng)
	n := webpush.Notification{
		Title: title,
		Body:  body,
		Icon:  fmt.Sprintf("https://%s/icon.png", s.Domain),
	}
	switch {
	case len(s.ExternalLanding) > 0:
		// Malicious self site: external scam landing.
		d := s.ExternalLanding[rng.Intn(len(s.ExternalLanding))]
		n.TargetURL = fmt.Sprintf("https://%s/%s.html?case=%d",
			d, joinPath(cat.PathTokens), rng.Intn(10000))
		if s.eco.OnMalURL != nil {
			s.eco.OnMalURL(n.TargetURL, s.eco.Now())
		}
		s.eco.Truth.registerSelfMalicious(n.TargetURL)
	case rng.Float64() < noTargetFraction:
		// Pure alert with no landing.
	default:
		// Same-origin article, unique id per push (singleton paths).
		n.TargetURL = fmt.Sprintf("https://%s/%s/a%d.html?id=%d",
			s.Domain, joinPath(cat.PathTokens), rng.Intn(1<<20), rng.Intn(1<<20))
	}
	return n
}

func joinPath(tokens []string) string {
	out := ""
	for i, t := range tokens {
		if i > 0 {
			out += "/"
		}
		out += t
	}
	return out
}
