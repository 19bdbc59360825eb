package core

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pushadminer/internal/adblock"
	"pushadminer/internal/browser"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/telemetry"
	"pushadminer/internal/urlx"
	"pushadminer/internal/webeco"
)

// rescanAfter is the delay before the second blocklist scan (§6.3.2's
// one-month rescan).
const rescanAfter = 30 * 24 * time.Hour

// StudyConfig configures a full end-to-end reproduction run: ecosystem
// generation, desktop + mobile crawls, and the mining pipeline.
type StudyConfig struct {
	Eco webeco.Config
	// CollectionWindow is each crawl's monitoring duration (the paper
	// collected for about two months; the default 14 simulated days
	// captures the same multi-push behaviour faster).
	CollectionWindow time.Duration
	// IncludeMobile adds the Android crawl (§4.2). Default true via
	// WithDefaults.
	SkipMobile bool
	// Pipeline tweaks analysis stages (ablations). Services and Scans
	// are filled in from the ecosystem.
	Pipeline PipelineOptions
	// PumpWorkers bounds the crawler's parallel monitor phases (polls,
	// push dispatch, auto-clicks, landing-page subscriptions); the
	// ecosystem's push-delivery fan-out and the pipeline's featurize
	// and blocklist-lookup stages follow it unless set explicitly. 1
	// forces the serial reference path everywhere; <= 0 defaults to
	// the crawler's container-pool size. Results are byte-identical at
	// every worker count.
	PumpWorkers int
	// BatchWindow coalesces the crawler's monitor ticks (see
	// crawler.Config.BatchWindow): everything due within the window of
	// the first due event is pumped as one batch, which is what gives
	// the parallel phases batches worth fanning out over. 0 keeps
	// exact per-event stepping.
	BatchWindow time.Duration

	// Shards is how many workers each crawl's fleet (internal/fleet)
	// runs: a coordinator plus Shards in-process workers, each owning a
	// disjoint container set with its own durable state, heartbeat
	// monitoring, bounded restart, and work stealing. <= 1 means one
	// worker. Results are byte-identical at every shard count.
	Shards int
	// ShardHeartbeat is the fleet's simulated-time liveness-check
	// period; <= 0 uses the fleet default (6h).
	ShardHeartbeat time.Duration
	// MaxShardRestarts bounds restart-with-resume per worker (0 = fleet
	// default of 2, negative = never restart, steal immediately).
	MaxShardRestarts int
	// FleetDir is where shard state files are written (one
	// subdirectory per device); empty uses a private temp directory when
	// worker kills are possible.
	FleetDir string

	// Metrics, when non-nil, is threaded through every layer: the
	// ecosystem's virtual network and chaos injector, both crawls, and
	// the mining pipeline, so one snapshot covers the whole study. Nil
	// disables with no overhead.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records the WPN attack chains observed by
	// every crawl browser plus the mining stage spans. Nil disables.
	Tracer *telemetry.Tracer
	// Ledger, when non-nil, receives the run's event record: the
	// desktop fleet's control-plane events, then the mobile fleet's
	// (told apart by their "device" attr), then the mining events. It
	// is deterministic at a fixed seed and chaos plan. Nil disables.
	Ledger *telemetry.Ledger
}

func (c StudyConfig) withDefaults() StudyConfig {
	if c.CollectionWindow <= 0 {
		c.CollectionWindow = 14 * 24 * time.Hour
	}
	return c
}

// NetworkStats is one bar group of Figure 6.
type NetworkStats struct {
	Network      string
	Ads          int
	MaliciousAds int
}

// Study is a complete reproduction run with everything the tables and
// figures need.
type Study struct {
	Cfg      StudyConfig
	Eco      *webeco.Ecosystem
	Desktop  *crawler.Result
	Mobile   *crawler.Result
	Records  []*crawler.WPNRecord
	Analysis *Analysis

	// FleetReports holds each device crawl's control-plane accounting,
	// keyed by device name.
	FleetReports map[string]*fleet.Report

	// PerNetwork holds Figure 6's distribution, sorted by ad count
	// descending.
	PerNetwork []NetworkStats
}

// RunStudy builds an ecosystem, crawls it on desktop (and mobile), and
// runs the analysis pipeline.
func RunStudy(cfg StudyConfig) (*Study, error) {
	return RunStudyContext(context.Background(), cfg)
}

// RunStudyContext is RunStudy with cancellation: cancelling ctx aborts
// the crawls at their next safe point.
func RunStudyContext(ctx context.Context, cfg StudyConfig) (*Study, error) {
	cfg = cfg.withDefaults()
	if cfg.Eco.Telemetry == nil {
		cfg.Eco.Telemetry = cfg.Metrics
	}
	if cfg.Eco.FlushWorkers == 0 {
		// Scheduler deliveries follow the crawler's pump parallelism: a
		// serial reference run (PumpWorkers=1) keeps them serial, any
		// other setting fans them out at the crawler's container-pool
		// width (32 mirrors the crawler's MaxContainers default).
		if cfg.PumpWorkers > 0 {
			cfg.Eco.FlushWorkers = cfg.PumpWorkers
		} else {
			cfg.Eco.FlushWorkers = 32
		}
	}
	eco, err := webeco.New(cfg.Eco)
	if err != nil {
		return nil, err
	}
	s := &Study{Cfg: cfg, Eco: eco, FleetReports: make(map[string]*fleet.Report)}

	seeds := eco.SeedURLs()
	runCrawl := func(device browser.DeviceType, real bool) (*crawler.Result, error) {
		crawlCfg := crawler.Config{
			Clock:            eco.Clock,
			NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
			Driver:           eco,
			Pending:          eco.Push,
			Device:           device,
			RealDevice:       real,
			CollectionWindow: cfg.CollectionWindow,
			PumpWorkers:      cfg.PumpWorkers,
			BatchWindow:      cfg.BatchWindow,
			CrashPlan:        eco.CrashPlan(),
			FaultCounts:      eco.FaultCounts,
			Metrics:          cfg.Metrics,
			Tracer:           cfg.Tracer,
		}
		res, rep, err := fleet.Run(ctx, fleet.Config{
			Crawl:           crawlCfg,
			Shards:          cfg.Shards,
			Heartbeat:       cfg.ShardHeartbeat,
			MaxRestarts:     cfg.MaxShardRestarts,
			Dir:             fleetDirFor(cfg.FleetDir, device),
			WorkerCrashPlan: eco.WorkerCrashPlan(),
			Ledger:          cfg.Ledger,
		}, seeds)
		if rep != nil {
			s.FleetReports[device.String()] = rep
		}
		return res, err
	}

	if s.Desktop, err = runCrawl(browser.Desktop, false); err != nil {
		eco.Close()
		return nil, err
	}
	s.Records = append(s.Records, s.Desktop.Records...)
	if !cfg.SkipMobile {
		if s.Mobile, err = runCrawl(browser.Mobile, true); err != nil {
			eco.Close()
			return nil, err
		}
		s.Records = append(s.Records, s.Mobile.Records...)
	}

	opts := cfg.Pipeline
	opts.Services = []BlocklistLookup{
		ServiceLookup{S: eco.VT},
		ServiceLookup{S: eco.GSB},
	}
	now := eco.Clock.Now()
	opts.Scans = []time.Time{now, now.Add(rescanAfter)}
	if opts.Metrics == nil {
		opts.Metrics = cfg.Metrics
	}
	if opts.Tracer == nil {
		opts.Tracer = cfg.Tracer
	}
	if opts.Ledger == nil {
		opts.Ledger = cfg.Ledger
	}
	// Featurization follows the study's worker setting unless the
	// ablation options pinned their own.
	if opts.Features.Workers == 0 {
		opts.Features.Workers = cfg.PumpWorkers
	}
	if s.Analysis, err = RunPipeline(s.Records, opts); err != nil {
		eco.Close()
		return nil, err
	}
	s.Analysis.Report.TotalCollected = len(s.Records)
	s.PerNetwork = s.perNetworkStats()
	return s, nil
}

// fleetDirFor derives the per-device shard-state directory, so the
// desktop and mobile fleets never clobber each other's files.
func fleetDirFor(base string, device browser.DeviceType) string {
	if base == "" {
		return ""
	}
	return filepath.Join(base, device.String())
}

// Close releases the study's ecosystem.
func (s *Study) Close() error { return s.Eco.Close() }

// NetworkOfSW attributes a service worker URL to an ad network by its
// CDN host, or "self-hosted" for first-party workers.
func (s *Study) NetworkOfSW(swURL string) string {
	host := urlx.HostOf(swURL)
	for _, an := range s.Eco.Networks() {
		if host == an.CDNHost {
			return an.Spec.Name
		}
	}
	return "self-hosted"
}

func (s *Study) perNetworkStats() []NetworkStats {
	agg := map[string]*NetworkStats{}
	for i, r := range s.Analysis.FS.Records {
		l := s.Analysis.Labels[i]
		if !l.IsAd {
			continue
		}
		name := s.NetworkOfSW(r.SWURL)
		st := agg[name]
		if st == nil {
			st = &NetworkStats{Network: name}
			agg[name] = st
		}
		st.Ads++
		if l.Malicious() {
			st.MaliciousAds++
		}
	}
	out := make([]NetworkStats, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ads != out[j].Ads {
			return out[i].Ads > out[j].Ads
		}
		return out[i].Network < out[j].Network
	})
	return out
}

// AdBlockerStats is Table 6's measurement for one blocking mechanism.
type AdBlockerStats struct {
	Name string
	adblock.Stats
}

// EvaluateAdBlockers replays every SW network request observed during
// the study against the EasyList rules and two simulated ad-blocker
// extensions (which cannot see SW traffic), reproducing Table 6.
func (s *Study) EvaluateAdBlockers() []AdBlockerStats {
	engine := adblock.ParseList(s.Eco.EasyListRules())
	var reqs []adblock.Request
	for _, r := range s.Records {
		for _, sw := range r.SWRequests {
			reqs = append(reqs, adblock.Request{
				URL:               sw.URL,
				DocumentURL:       r.SourceURL,
				Type:              adblock.TypeXHR,
				FromServiceWorker: true,
			})
		}
	}
	easylist := adblock.Extension{Name: "EasyList (direct matching)", Engine: engine, SeesServiceWorkers: true}
	ext1 := adblock.Extension{Name: "AdBlock-Plus-like extension", Engine: engine}
	ext2 := adblock.Extension{Name: "uBlock-like extension", Engine: engine}
	return []AdBlockerStats{
		{Name: easylist.Name, Stats: easylist.Evaluate(reqs)},
		{Name: ext1.Name, Stats: ext1.Evaluate(reqs)},
		{Name: ext2.Name, Stats: ext2.Evaluate(reqs)},
	}
}

// CostEstimate reproduces the §3 ethics computation: the cost our
// clicks imposed on legitimate advertisers, at the push-notification CPM.
type CostEstimate struct {
	CPMUSD            float64
	Domains           int
	MaxClicksOnDomain int
	MaxCostUSD        float64
	AvgClicksPerDom   float64
	AvgCostUSD        float64
}

// EstimateAdvertiserCost prices clicks on ads whose landing pages were
// not blocklist-flagged (the paper's definition of legitimate).
func (s *Study) EstimateAdvertiserCost() CostEstimate {
	const cpm = 2.54 // USD per mille, iZooto push-ad CPM
	clicks := map[string]int{}
	for i, r := range s.Analysis.FS.Records {
		l := s.Analysis.Labels[i]
		if !l.IsAd || l.KnownMalicious {
			continue
		}
		if d := urlx.ESLDOf(r.LandingURL); d != "" {
			clicks[d]++
		}
	}
	est := CostEstimate{CPMUSD: cpm, Domains: len(clicks)}
	total := 0
	for _, n := range clicks {
		total += n
		if n > est.MaxClicksOnDomain {
			est.MaxClicksOnDomain = n
		}
	}
	if est.Domains > 0 {
		est.AvgClicksPerDom = float64(total) / float64(est.Domains)
	}
	est.MaxCostUSD = float64(est.MaxClicksOnDomain) / 1000 * cpm
	est.AvgCostUSD = est.AvgClicksPerDom / 1000 * cpm
	return est
}

// Evaluation compares pipeline labels to the ecosystem's ground truth —
// something the paper could not do on the live web. It is the
// simulation's accuracy check.
type Evaluation struct {
	TruthMaliciousAds int
	TruthBenign       int
	TruePositives     int
	FalsePositives    int
	FalseNegatives    int
}

// Precision returns TP / (TP + FP).
func (e Evaluation) Precision() float64 {
	if e.TruePositives+e.FalsePositives == 0 {
		return 0
	}
	return float64(e.TruePositives) / float64(e.TruePositives+e.FalsePositives)
}

// Recall returns TP / (TP + FN).
func (e Evaluation) Recall() float64 {
	if e.TruePositives+e.FalseNegatives == 0 {
		return 0
	}
	return float64(e.TruePositives) / float64(e.TruePositives+e.FalseNegatives)
}

// Evaluate scores the pipeline's malicious labeling against ground
// truth over the valid-landing records.
func (s *Study) Evaluate() Evaluation {
	truth := s.Eco.Truth()
	var ev Evaluation
	for i, r := range s.Analysis.FS.Records {
		isMal := truth.IsMaliciousURL(r.LandingURL)
		if isMal {
			ev.TruthMaliciousAds++
		} else {
			ev.TruthBenign++
		}
		labeled := s.Analysis.Labels[i].Malicious()
		switch {
		case labeled && isMal:
			ev.TruePositives++
		case labeled && !isMal:
			ev.FalsePositives++
		case !labeled && isMal:
			ev.FalseNegatives++
		}
	}
	return ev
}

// DescribeCluster renders one WPN cluster like Figure 4's examples.
func (s *Study) DescribeCluster(ci int) string {
	c := s.Analysis.Clusters.Clusters[ci]
	var b strings.Builder
	fmt.Fprintf(&b, "cluster %d: %d WPNs, %d source domains, %d landing domains, ad_campaign=%v\n",
		c.ID, len(c.Members), len(c.SourceDomains), len(c.LandingDomains), c.IsAdCampaign)
	max := len(c.Members)
	if max > 3 {
		max = 3
	}
	for _, m := range c.Members[:max] {
		r := s.Analysis.FS.Records[m]
		fmt.Fprintf(&b, "  %q / %q → %s\n", r.Title, r.Body, r.LandingURL)
	}
	return b.String()
}
