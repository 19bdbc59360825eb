package webeco

import (
	"sync"

	"pushadminer/internal/urlx"
)

// AdTruth is ground truth about one served ad impression. It is used
// only for evaluation (precision/recall of the pipeline) and for seeding
// the blocklist simulators — the mining pipeline never sees it.
type AdTruth struct {
	CampaignID int
	Network    string
	Category   string
	Malicious  bool
	IsAd       bool
}

// Truth is the evaluation oracle the ecosystem maintains as it serves
// content.
type Truth struct {
	mu         sync.RWMutex
	byAdID     map[string]AdTruth
	malURLs    map[string]bool
	malDomains map[string]bool
	campaigns  map[int]*Campaign
}

func newTruth() *Truth {
	return &Truth{
		byAdID:     make(map[string]AdTruth),
		malURLs:    make(map[string]bool),
		malDomains: make(map[string]bool),
		campaigns:  make(map[int]*Campaign),
	}
}

func (t *Truth) registerCampaign(c *Campaign) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.campaigns[c.ID] = c
	if c.Category.Malicious {
		for _, d := range c.LandingDomains {
			t.malDomains[d] = true
		}
	}
}

// registerAd records an impression and, for malicious campaigns, its
// landing URL.
func (t *Truth) registerAd(adID string, tr AdTruth, landingURL string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byAdID[adID] = tr
	if tr.Malicious && landingURL != "" {
		t.malURLs[landingURL] = true
	}
}

// registerSelfMalicious records a malicious landing URL served by a
// self-operated (non-ad-network) pusher.
func (t *Truth) registerSelfMalicious(landingURL string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.malURLs[landingURL] = true
	t.malDomains[urlx.ESLDOf(landingURL)] = true
}

// addMaliciousDomain records an evasion-minted malicious landing domain.
func (t *Truth) addMaliciousDomain(d string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.malDomains[d] = true
}

// AdTruth looks up ground truth for an ad id.
func (t *Truth) AdTruth(adID string) (AdTruth, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tr, ok := t.byAdID[adID]
	return tr, ok
}

// IsMaliciousURL reports whether a full landing URL was served by a
// malicious campaign.
func (t *Truth) IsMaliciousURL(u string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.malURLs[u] {
		return true
	}
	return t.malDomains[urlx.ESLDOf(u)]
}

// IsMaliciousDomain reports whether a landing domain belongs to a
// malicious campaign.
func (t *Truth) IsMaliciousDomain(d string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.malDomains[d]
}

// Campaign returns the campaign with the given id.
func (t *Truth) Campaign(id int) (*Campaign, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.campaigns[id]
	return c, ok
}

// NumCampaigns reports how many campaigns exist.
func (t *Truth) NumCampaigns() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.campaigns)
}
