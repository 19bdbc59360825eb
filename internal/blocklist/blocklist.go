// Package blocklist simulates the URL blocklisting services the labeling
// stage queries (§5.2): Google Safe Browsing and VirusTotal. Real
// blocklists have two properties the paper measures and the pipeline must
// cope with: *coverage gaps* (most malicious WPN landing URLs are missed
// — <1% flagged on the initial scan) and *detection lag* (a rescan one
// month later flagged 11.31% on VT while GSB stayed ~1%). Both are
// modeled here with per-URL deterministic sampling, so experiments are
// reproducible and order-independent.
//
// The package also provides the manual blocklist the authors maintain
// after manual verification (§5.4).
package blocklist

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"time"

	"pushadminer/internal/httpx"
	"pushadminer/internal/simclock"
)

// Config controls a simulated blocklist service's detection behaviour.
type Config struct {
	// Name identifies the service ("gsb", "vt").
	Name string
	// InitialCoverage is the fraction of truly malicious URLs flagged as
	// soon as they are first seen.
	InitialCoverage float64
	// EventualCoverage is the fraction flagged after MaxLag has passed.
	// Must be >= InitialCoverage.
	EventualCoverage float64
	// MaxLag is the time over which detection ramps from initial to
	// eventual coverage.
	MaxLag time.Duration
	// Seed decorrelates services from each other.
	Seed int64
}

// VTDefault returns the VirusTotal-shaped configuration: ~1% initial
// detection rising to ~11.5% after a month (§6.3.2).
func VTDefault() Config {
	return Config{
		Name:             "vt",
		InitialCoverage:  0.01,
		EventualCoverage: 0.115,
		MaxLag:           30 * 24 * time.Hour,
		Seed:             0x56540001,
	}
}

// GSBDefault returns the Google-Safe-Browsing-shaped configuration:
// ~0.5% initial, ~1% eventual (§6.3.2 reports GSB stuck near 1%).
func GSBDefault() Config {
	return Config{
		Name:             "gsb",
		InitialCoverage:  0.005,
		EventualCoverage: 0.01,
		MaxLag:           30 * 24 * time.Hour,
		Seed:             0x47534200,
	}
}

// Verdict is a lookup result.
type Verdict struct {
	URL       string `json:"url"`
	Malicious bool   `json:"malicious"`
	// Engines is the number of detection engines flagging the URL (>= 1
	// when Malicious); it models VT's multi-engine reports.
	Engines int `json:"engines,omitempty"`
}

// Service simulates one URL blocklist. Ground truth (which URLs are in
// fact malicious, and when the simulation first exposed them) is fed by
// the ecosystem via MarkMalicious; Lookup then reports detection as a
// function of elapsed time and the service's coverage curve.
type Service struct {
	cfg Config

	mu        sync.RWMutex
	firstSeen map[string]time.Time
	forced    map[string]bool // test/manual overrides: always detected
}

// New creates a Service from cfg.
func New(cfg Config) *Service {
	if cfg.EventualCoverage < cfg.InitialCoverage {
		cfg.EventualCoverage = cfg.InitialCoverage
	}
	if cfg.MaxLag <= 0 {
		cfg.MaxLag = 30 * 24 * time.Hour
	}
	return &Service{
		cfg:       cfg,
		firstSeen: make(map[string]time.Time),
		forced:    make(map[string]bool),
	}
}

// Name returns the service name.
func (s *Service) Name() string { return s.cfg.Name }

// MarkMalicious records ground truth: url is malicious and was first
// active at the given time. Calling it again with an earlier time moves
// the first-seen instant back.
func (s *Service) MarkMalicious(url string, firstSeen time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.firstSeen[url]; !ok || firstSeen.Before(prev) {
		s.firstSeen[url] = firstSeen
	}
}

// Force makes a URL always detected, regardless of sampling. Used to pin
// specific URLs in tests and to model confirmed high-profile detections.
func (s *Service) Force(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.forced[url] = true
}

// sample maps a URL to a deterministic uniform value in [0, 1).
func (s *Service) sample(url string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s", s.cfg.Name, s.cfg.Seed, url)
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// Lookup reports whether the service flags url as malicious at the given
// instant. Benign URLs (never marked) are never flagged — the simulation
// does not model blocklist false positives here; the paper's observed FPs
// are modeled downstream by the manual-verification stage.
func (s *Service) Lookup(url string, now time.Time) Verdict {
	s.mu.RLock()
	seen, isMal := s.firstSeen[url]
	forced := s.forced[url]
	s.mu.RUnlock()
	v := Verdict{URL: url}
	if forced {
		v.Malicious = true
		v.Engines = 3
		return v
	}
	if !isMal {
		return v
	}
	u := s.sample(url)
	if u < s.coverageAt(now.Sub(seen)) {
		v.Malicious = true
		// A second hash decides how many engines concur (1..4).
		v.Engines = 1 + int(s.sample("engines|"+url)*4)
	}
	return v
}

// coverageAt returns the detection probability after the given elapsed
// time, ramping linearly from initial to eventual coverage over MaxLag.
func (s *Service) coverageAt(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return s.cfg.InitialCoverage
	}
	if elapsed >= s.cfg.MaxLag {
		return s.cfg.EventualCoverage
	}
	frac := float64(elapsed) / float64(s.cfg.MaxLag)
	return s.cfg.InitialCoverage + frac*(s.cfg.EventualCoverage-s.cfg.InitialCoverage)
}

// NumKnown reports how many URLs have been marked malicious.
func (s *Service) NumKnown() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.firstSeen)
}

// --- HTTP API ---

type lookupRequest struct {
	URLs []string  `json:"urls"`
	Now  time.Time `json:"now"`
}

type lookupResponse struct {
	Verdicts []Verdict `json:"verdicts"`
}

// ServeHTTP exposes POST /lookup {urls, now} → {verdicts}, so pipeline
// components can query the service over the virtual network like the
// real VT/GSB APIs.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/lookup" {
		http.NotFound(w, r)
		return
	}
	var req lookupRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad lookup body", http.StatusBadRequest)
		return
	}
	if req.Now.IsZero() {
		req.Now = time.Now()
	}
	resp := lookupResponse{Verdicts: make([]Verdict, 0, len(req.URLs))}
	for _, u := range req.URLs {
		resp.Verdicts = append(resp.Verdicts, s.Lookup(u, req.Now))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp) //nolint:errcheck // best-effort response
}

// Client queries a blocklist service over HTTP, retrying transient
// failures (rate limits and hiccups are routine with VT/GSB-style APIs).
// The service is simulated, so its retries back off without waiting
// (simclock.NoWait).
type Client struct {
	HTTP *http.Client
	Base string // e.g. "https://vt.simpush.test"

	retryOnce sync.Once
	retry     *httpx.Client
}

// Lookup calls POST /lookup for the given URLs at the given instant.
func (c *Client) Lookup(urls []string, now time.Time) ([]Verdict, error) {
	c.retryOnce.Do(func() {
		c.retry = httpx.New(c.HTTP, simclock.NoWait{Clock: simclock.Real{}}, httpx.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
		})
	})
	body, err := json.Marshal(lookupRequest{URLs: urls, Now: now})
	if err != nil {
		return nil, err
	}
	resp, err := c.retry.Post(c.Base+"/lookup", "application/json", body)
	if err != nil {
		return nil, fmt.Errorf("blocklist client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("blocklist client: status %d", resp.StatusCode)
	}
	var out lookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Verdicts, nil
}

// Manual is the hand-curated blocklist built during manual verification
// (§5.4). It is a plain concurrent-safe set of URLs and domains.
type Manual struct {
	mu      sync.RWMutex
	urls    map[string]bool
	domains map[string]bool
}

// NewManual returns an empty manual blocklist.
func NewManual() *Manual {
	return &Manual{urls: make(map[string]bool), domains: make(map[string]bool)}
}

// AddURL records a manually confirmed malicious URL.
func (m *Manual) AddURL(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.urls[url] = true
}

// AddDomain records a manually confirmed malicious domain.
func (m *Manual) AddDomain(domain string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.domains[domain] = true
}

// ContainsURL reports whether url was manually blocklisted.
func (m *Manual) ContainsURL(url string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.urls[url]
}

// ContainsDomain reports whether domain was manually blocklisted.
func (m *Manual) ContainsDomain(domain string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.domains[domain]
}

// URLs returns the blocklisted URLs, sorted.
func (m *Manual) URLs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.urls))
	for u := range m.urls {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of blocklisted URLs.
func (m *Manual) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.urls)
}
