package core

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/report"
	"pushadminer/internal/stats"
	"pushadminer/internal/webeco"
)

// RevisitResult reproduces the §6.3.3 "additional recent measurements":
// re-crawling a sample of previously seen sites months later and
// comparing PushAdMiner's labels with what VirusTotal alone catches.
type RevisitResult struct {
	SitesRevisited int
	SitesSending   int
	Notifications  int
	WPNAds         int
	MaliciousAds   int
	VTFlagged      int
}

// RunRevisit continues a finished study: it advances the simulated clock
// by gap, revisits sampleSize random previously-NPR sites for the given
// window, and runs the pipeline over the fresh notifications.
func RunRevisit(s *Study, sampleSize int, gap, window time.Duration) (*RevisitResult, error) {
	eco := s.Eco
	eco.Clock.Advance(gap)
	// Web churn: months later, most previously active push origins have
	// gone quiet (the paper found only 35 of 300 still sending).
	eco.SetDormancy(0.88)

	pool := append([]string(nil), s.Desktop.NPRURLs...)
	rng := rand.New(rand.NewSource(s.Cfg.Eco.Seed ^ 0x7e715))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if sampleSize > len(pool) {
		sampleSize = len(pool)
	}
	sample := pool[:sampleSize]

	res, err := fleet.Run(context.Background(), fleet.Config{Crawl: crawler.Config{
		Clock:            eco.Clock,
		NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
		Driver:           eco,
		Pending:          eco.Push,
		Device:           browser.Desktop,
		CollectionWindow: window,
	}}, sample)
	if err != nil {
		return nil, err
	}
	out := &RevisitResult{SitesRevisited: sampleSize, Notifications: len(res.Records)}
	senders := map[string]bool{}
	for _, r := range res.Records {
		senders[r.SourceDomain] = true
	}
	out.SitesSending = len(senders)
	if len(res.Records) == 0 {
		return out, nil
	}

	a, err := RunPipeline(res.Records, PipelineOptions{
		Services: []BlocklistLookup{ServiceLookup{S: eco.VT}, ServiceLookup{S: eco.GSB}},
		Scans:    []time.Time{eco.Clock.Now()},
	})
	if err != nil {
		return nil, err
	}
	out.WPNAds = a.Report.TotalAds
	// The sample is small enough for the full manual pass the authors
	// did on the revisit batch: every record is reviewed, not only the
	// ones the (sample-starved) clustering rules flag. The paper marked
	// 48 of the revisit WPNs malicious this way, then checked how many
	// VT alone catches (15).
	analyst := NewAnalyst()
	for i, r := range a.FS.Records {
		if a.Labels[i].Malicious() || analyst.JudgeRecord(r) {
			out.MaliciousAds++
			if eco.VT.Lookup(r.LandingURL, eco.Clock.Now()).Malicious {
				out.VTFlagged++
			}
		}
	}
	return out, nil
}

// PilotResult reproduces the §6.1.2 pilot: how quickly sites send their
// first notification after permission is granted.
type PilotResult struct {
	Sources        int
	Within15Min    int
	MedianDelay    time.Duration
	MaxDelay       time.Duration
	FractionWithin float64
	// Latencies holds every source's first-notification delay, for CDF
	// rendering.
	Latencies []time.Duration
}

// RunPilot runs a long-monitoring crawl (the paper waited up to 96
// hours) over the ecosystem's seeds and measures first-notification
// latency per source.
func RunPilot(eco *webeco.Ecosystem, monitorWindow, collectionWindow time.Duration) (*PilotResult, error) {
	res, err := fleet.Run(context.Background(), fleet.Config{Crawl: crawler.Config{
		Clock:            eco.Clock,
		NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
		Driver:           eco,
		Pending:          eco.Push,
		Device:           browser.Desktop,
		MonitorWindow:    monitorWindow,
		ResumeInterval:   time.Hour,
		CollectionWindow: collectionWindow,
	}}, eco.SeedURLs())
	if err != nil {
		return nil, err
	}
	first := map[string]time.Duration{}
	for _, r := range res.Records {
		d := r.ShownAt.Sub(r.RegisteredAt)
		if prev, ok := first[r.SourceURL]; !ok || d < prev {
			first[r.SourceURL] = d
		}
	}
	out := &PilotResult{Sources: len(first)}
	if len(first) == 0 {
		return out, nil
	}
	delays := make([]time.Duration, 0, len(first))
	for _, d := range first {
		delays = append(delays, d)
		if d <= 15*time.Minute {
			out.Within15Min++
		}
		if d > out.MaxDelay {
			out.MaxDelay = d
		}
	}
	sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
	out.MedianDelay = delays[len(delays)/2]
	out.FractionWithin = float64(out.Within15Min) / float64(out.Sources)
	out.Latencies = delays
	return out, nil
}

// PilotCDFTable renders the pilot's first-notification latency
// distribution — the evidence behind choosing the 15-minute monitoring
// window (§6.1.2).
func PilotCDFTable(pr *PilotResult) *report.Table {
	t := &report.Table{
		Title:   "Pilot — first-notification latency distribution",
		Headers: []string{"Latency bucket", "Sources", "Cumulative"},
		Note:    "paper: 98% of first notifications arrived within 15 minutes",
	}
	if len(pr.Latencies) == 0 {
		t.AddRow("(no data)", 0, "")
		return t
	}
	bounds := []time.Duration{
		time.Minute, 5 * time.Minute, 15 * time.Minute, time.Hour,
		24 * time.Hour, 96 * time.Hour,
	}
	ecdf := stats.NewDurationECDF(pr.Latencies)
	cum := 0
	for _, b := range stats.DurationHistogram(pr.Latencies, bounds) {
		cum += b.Count
		t.AddRow(b.Label, b.Count, report.Pct(cum, len(pr.Latencies)))
	}
	t.AddRow("median", ecdf.Quantile(0.5).Round(time.Second).String(), "")
	t.AddRow("p98", ecdf.Quantile(0.98).Round(time.Second).String(), "")
	return t
}

// DoublePermissionResult reproduces the §8 experiment: how many
// previously direct-prompting sites switched to a JS pre-prompt.
type DoublePermissionResult struct {
	Checked          int
	DoublePermission int
}

// RunDoublePermissionCheck builds a "months later" ecosystem in which a
// fraction of NPR sites adopted double permission, revisits sampleSize
// NPR sites, and counts the pre-prompts (the paper found 49 of 200).
func RunDoublePermissionCheck(seed int64, scale float64, adoptedFraction float64, sampleSize int) (*DoublePermissionResult, error) {
	eco, err := webeco.New(webeco.Config{
		Seed: seed, Scale: scale, DoublePermissionFraction: adoptedFraction,
	})
	if err != nil {
		return nil, err
	}
	defer eco.Close()
	out := &DoublePermissionResult{}
	br := browser.New(browser.Config{
		Clock:  eco.Clock,
		Client: eco.Net.ClientNoRedirect(),
	})
	for _, u := range eco.SeedURLs() {
		if out.Checked >= sampleSize {
			break
		}
		vr, err := br.Visit(u)
		if err != nil || !vr.RequestedPermission {
			continue
		}
		out.Checked++
		if vr.DoublePermission {
			out.DoublePermission++
		}
	}
	return out, nil
}

// QuietUIResult reproduces the §6.4 Chrome-80 check: sites previously
// requesting notification permission still prompt under the quieter
// permission UI, because the abusive-origin list is empty at rollout.
type QuietUIResult struct {
	Revisited     int
	StillPrompted int
	Quieted       int
}

// RunQuietUICheck revisits up to sampleSize NPR sites from a finished
// study with a QuietUI-policy browser.
func RunQuietUICheck(s *Study, sampleSize int) (*QuietUIResult, error) {
	eco := s.Eco
	br := browser.New(browser.Config{
		Clock:  eco.Clock,
		Client: eco.Net.ClientNoRedirect(),
		Policy: browser.QuietUI,
		// Chrome 80's quieter UI shipped before it had learned which
		// origins abuse prompts, so its blocklist starts empty.
		QuietedOrigins: map[string]bool{},
	})
	out := &QuietUIResult{}
	for _, u := range s.Desktop.NPRURLs {
		if out.Revisited >= sampleSize {
			break
		}
		vr, err := br.Visit(u)
		if err != nil {
			continue
		}
		out.Revisited++
		if vr.RequestedPermission && vr.Granted {
			out.StillPrompted++
		} else if vr.RequestedPermission {
			out.Quieted++
		}
	}
	return out, nil
}

// ClusterArchetypes are Figure 4's four example clusters.
type ClusterArchetypes struct {
	// C1: a malicious ad campaign (multi-source, blocklist-flagged).
	MaliciousCampaign *WPNCluster
	// C2: an ad campaign with duplicate landing domains none of which
	// the blocklists flagged.
	DuplicateAdsCampaign *WPNCluster
	// C3: a single-source repeated alert (the bank-loan cluster).
	SingleSourceAlerts *WPNCluster
	// C4: a singleton.
	Singleton *WPNCluster
}

// FindArchetypes locates Figure 4's cluster archetypes in a study.
func FindArchetypes(s *Study) ClusterArchetypes {
	a := s.Analysis
	// A campaign is "malicious" for C1 if the blocklists flagged it or
	// the later stages confirmed it.
	campaignMalicious := func(ci int) bool {
		if a.MalClusters[ci] {
			return true
		}
		for _, m := range a.Clusters.Clusters[ci].Members {
			if a.Labels[m].Malicious() {
				return true
			}
		}
		return false
	}
	var out ClusterArchetypes
	for ci, c := range a.Clusters.Clusters {
		switch {
		case c.IsAdCampaign && campaignMalicious(ci):
			if out.MaliciousCampaign == nil || len(c.Members) > len(out.MaliciousCampaign.Members) {
				out.MaliciousCampaign = c
			}
		case c.IsAdCampaign && len(c.LandingDomains) > 1 && !a.MalClusters[ci]:
			if out.DuplicateAdsCampaign == nil || len(c.Members) > len(out.DuplicateAdsCampaign.Members) {
				out.DuplicateAdsCampaign = c
			}
		case !c.IsAdCampaign && !c.Singleton() && len(c.SourceDomains) == 1:
			if out.SingleSourceAlerts == nil || len(c.Members) > len(out.SingleSourceAlerts.Members) {
				out.SingleSourceAlerts = c
			}
		case c.Singleton() && out.Singleton == nil:
			out.Singleton = c
		}
	}
	return out
}

// MetaClusterExample summarizes one meta cluster for Figure 5.
type MetaClusterExample struct {
	ID          int
	NumClusters int
	NumDomains  int
	Suspicious  bool
	AdRelated   bool
	Domains     []string
}

// LargestMetaClusters returns the n largest meta clusters (by member
// cluster count), Figure 5's examples.
func LargestMetaClusters(s *Study, n int) []MetaClusterExample {
	metas := append([]*MetaCluster(nil), s.Analysis.Meta.Meta...)
	sort.Slice(metas, func(i, j int) bool {
		return len(metas[i].Clusters) > len(metas[j].Clusters)
	})
	if n > len(metas) {
		n = len(metas)
	}
	out := make([]MetaClusterExample, 0, n)
	for _, mc := range metas[:n] {
		domains := mc.Domains
		if len(domains) > 6 {
			domains = domains[:6]
		}
		out = append(out, MetaClusterExample{
			ID:          mc.ID,
			NumClusters: len(mc.Clusters),
			NumDomains:  len(mc.Domains),
			Suspicious:  mc.Suspicious,
			AdRelated:   mc.AdRelated,
			Domains:     domains,
		})
	}
	return out
}

// SingletonExample is one row of Table 5.
type SingletonExample struct {
	Title         string
	SourceDomain  string
	LandingDomain string
}

// SampleSingletons returns up to n singleton-cluster examples remaining
// after meta clustering (Table 5).
func SampleSingletons(s *Study, n int) []SingletonExample {
	var out []SingletonExample
	a := s.Analysis
	for _, mc := range a.Meta.Meta {
		if len(out) >= n {
			break
		}
		if len(mc.Clusters) != 1 {
			continue
		}
		c := a.Clusters.Clusters[mc.Clusters[0]]
		if !c.Singleton() {
			continue
		}
		r := a.FS.Records[c.Members[0]]
		ld := ""
		if len(c.LandingDomains) > 0 {
			ld = c.LandingDomains[0]
		}
		out = append(out, SingletonExample{
			Title:         r.Title,
			SourceDomain:  r.SourceDomain,
			LandingDomain: ld,
		})
	}
	return out
}

// String renders a pilot result.
func (p *PilotResult) String() string {
	return fmt.Sprintf("pilot: %d sources, %.1f%% first notification within 15min (median %s, max %s)",
		p.Sources, 100*p.FractionWithin, p.MedianDelay, p.MaxDelay)
}
