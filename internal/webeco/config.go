// Package webeco builds the synthetic web ecosystem PushAdMiner crawls:
// push ad networks (the 15 seed networks of Table 1), publisher sites
// embedding their tags, self-hosted push sites found via generic
// keywords, ad campaigns with rotated landing domains, benign and
// malicious landing pages, a code-search engine standing in for
// publicwww.com, Alexa-style popularity ranks, and the push scheduling
// that delivers WPNs to subscribed browsers. Everything is served as
// net/http handlers on the virtual network (internal/vnet); the
// generator is fully deterministic per seed.
package webeco

import (
	"time"

	"pushadminer/internal/blocklist"
	"pushadminer/internal/chaos"
	"pushadminer/internal/telemetry"
)

// NetworkSpec describes one seed ad network from Table 1 of the paper:
// how many URLs the code search finds for its keyword and how many of
// those actually request notification permission (NPRs).
type NetworkSpec struct {
	Name      string
	Keyword   string // code-search signature embedded in publisher pages
	PaperURLs int    // Table 1 "URLs" column
	PaperNPRs int    // Table 1 "NPRs" column
}

// SeedNetworks reproduces Table 1's 15 ad networks.
var SeedNetworks = []NetworkSpec{
	{"Ad-Maven", "admaven-push-tag", 49769, 1168},
	{"PushCrew", "pushcrew-sdk", 15177, 427},
	{"OneSignal", "onesignal-init", 11317, 2933},
	{"PopAds", "popads-pop-code", 1582, 73},
	{"PushEngage", "pushengage-widget", 796, 215},
	{"iZooto", "izooto-notify", 676, 278},
	{"PubMatic", "pubmatic-pushads", 647, 7},
	{"PropellerAds", "propeller-zone-tag", 335, 9},
	{"Criteo", "criteo-push-loader", 154, 5},
	{"AdsTerra", "adsterra-pushunit", 115, 2},
	{"AirPush", "airpush-web-sdk", 52, 0},
	{"HillTopAds", "hilltopads-push", 21, 3},
	{"RichPush", "richpush-tag", 12, 0},
	{"AdCash", "adcash-autopush", 10, 0},
	{"PushMonetization", "pushmonetization-js", 9, 5},
}

// GenericSpec describes one of Table 1's generic push-related keywords.
type GenericSpec struct {
	Keyword   string
	PaperURLs int
	PaperNPRs int
}

// GenericKeywords reproduces Table 1's generic keyword rows.
var GenericKeywords = []GenericSpec{
	{"NotificationrequestPermission", 3965, 538},
	{"pushmanagersubscribe", 2667, 158},
	{"addEventListener('Push'", 263, 9},
	{"adsblockkpushcom", 55, 19},
}

// PaperTotalURLs and PaperTotalNPRs are Table 1's totals.
const (
	PaperTotalURLs = 87622
	PaperTotalNPRs = 5849
)

// Config controls ecosystem generation.
type Config struct {
	// Seed drives all randomness. Same seed → identical ecosystem.
	Seed int64
	// Scale is the fraction of the paper's URL counts to generate.
	// 1.0 rebuilds Table 1 exactly; the default 0.05 yields a crawl of
	// ~4,400 URLs and a few thousand WPNs, large enough for every
	// experiment's shape to hold.
	Scale float64

	// DoublePermissionFraction is the fraction of NPR sites using the
	// JS pre-prompt (double permission, §8). The paper found ~1/4 on
	// revisit; the initial 2019 crawl saw almost none, so this defaults
	// to 0 and the revisit experiment raises it.
	DoublePermissionFraction float64
	// EvasionEnabled lets malicious campaigns actively rotate landing
	// domains once the operator sees them blocklisted (§5.2). Off by
	// default; the evasion experiment and ablation bench turn it on.
	EvasionEnabled bool
	// VTOverride replaces the default VirusTotal configuration (the
	// evasion experiment uses aggressive coverage so domains burn
	// within the crawl window).
	VTOverride *blocklist.Config
	// Chaos, when non-nil, wraps the virtual network with the
	// deterministic fault injector: latency spikes, connection resets,
	// 5xx bursts, truncated bodies, blackhole windows and push-service
	// outages, all seeded (a zero Chaos.Seed inherits Seed). Nil keeps
	// the network fault-free.
	Chaos *chaos.Profile
	// FlushWorkers bounds how many push endpoints the delivery
	// scheduler sends to concurrently per Tick. Per-endpoint send order
	// is preserved and outcomes fold in deterministic job order, so
	// results are byte-identical at any setting. <= 1 (the default)
	// delivers serially.
	FlushWorkers int
	// Telemetry, when non-nil, attaches the metrics registry to the
	// virtual network (per-host request counts, client round trips,
	// transport errors, injected-fault observations) and to the chaos
	// injector (fault totals) before any client exists, so even the
	// ecosystem's own scheduler traffic is counted. Nil disables.
	Telemetry *telemetry.Registry
}

// epoch is the simulation's start (the paper's collection started
// September 2019).
var epoch = time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)

// Fixed shape of the generated push traffic.
const (
	// pushesPerSubMin/Max bound how many notifications each
	// subscription receives over the collection window (the paper
	// observed ~2.7 on average).
	pushesPerSubMin, pushesPerSubMax = 1, 5
	// firstPushWithin is the window in which 98% of first
	// notifications arrive (15 minutes per the paper's pilot, §6.1.2).
	firstPushWithin = 15 * time.Minute
	// latePushMax is the maximum delay for the remaining 2%.
	latePushMax = 96 * time.Hour
	// crashFraction is the fraction of ad landing pages that crash the
	// tab (part of why only ~57% of collected WPNs had valid landings).
	crashFraction = 0.12
	// noTargetFraction is the fraction of non-ad notifications carrying
	// no target URL (pure alerts).
	noTargetFraction = 0.35
	// landingSubscribeFraction is the fraction of malicious landing
	// pages that themselves request notification permission, producing
	// the "additional URLs" discovered by clicking (§6.2).
	landingSubscribeFraction = 0.30
)

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	return c
}

// scaled scales a paper count, keeping zeros at zero and flooring
// nonzero counts at 1.
func (c Config) scaled(paper int) int {
	if paper == 0 {
		return 0
	}
	n := int(float64(paper)*c.Scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
