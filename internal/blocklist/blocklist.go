// Package blocklist simulates the URL blocklisting services the labeling
// stage queries (§5.2): Google Safe Browsing and VirusTotal. Real
// blocklists have two properties the paper measures and the pipeline must
// cope with: *coverage gaps* (most malicious WPN landing URLs are missed
// — <1% flagged on the initial scan) and *detection lag* (a rescan one
// month later flagged 11.31% on VT while GSB stayed ~1%). Both are
// modeled here with per-URL deterministic sampling, so experiments are
// reproducible and order-independent. The labeling stage queries the
// services in process (core.ServiceLookup); there is no HTTP API.
package blocklist

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"
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
