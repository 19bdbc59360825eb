package core

import (
	"fmt"
	"sort"
	"time"

	"pushadminer/internal/blocklist"
)

// BlocklistLookup abstracts a URL blocklist service (VT, GSB): it
// reports verdicts for full URLs at a given instant. The simulated
// services are queried in process through ServiceLookup.
type BlocklistLookup interface {
	Name() string
	Lookup(urls []string, now time.Time) ([]blocklist.Verdict, error)
}

// ServiceLookup adapts an in-process blocklist.Service.
type ServiceLookup struct{ S *blocklist.Service }

// Name implements BlocklistLookup.
func (l ServiceLookup) Name() string { return l.S.Name() }

// Lookup implements BlocklistLookup.
func (l ServiceLookup) Lookup(urls []string, now time.Time) ([]blocklist.Verdict, error) {
	out := make([]blocklist.Verdict, len(urls))
	for i, u := range urls {
		out[i] = l.S.Lookup(u, now)
	}
	return out, nil
}

// RecordLabels carries per-record labels accumulated through the
// pipeline stages.
type RecordLabels struct {
	// KnownMalicious: the record's landing URL is flagged by VT or GSB
	// (after FP filtering, §6.3.2).
	KnownMalicious bool
	// FlaggedBy names the services that flagged it.
	FlaggedBy []string
	// PropagatedMalicious: labeled via guilty-by-association within a
	// malicious WPN cluster (§5.2).
	PropagatedMalicious bool
	// IsAd: member of an ad campaign cluster or an ad-related meta
	// cluster.
	IsAd bool
	// AdViaMeta: became an ad only through meta-clustering (§5.4).
	AdViaMeta bool
	// Suspicious: flagged by the §5.4 suspicious-identification rules.
	Suspicious bool
	// ConfirmedMalicious: confirmed by the manual-verification pass.
	ConfirmedMalicious bool
}

// Malicious reports whether the record ended up labeled malicious by
// any path.
func (l *RecordLabels) Malicious() bool {
	return l.KnownMalicious || (l.PropagatedMalicious && l.ConfirmedMalicious) ||
		(l.Suspicious && l.ConfirmedMalicious)
}

// LabelKnownMalicious queries the blocklist services for every distinct
// landing URL (at each of the scan instants — the paper scanned once
// during collection and again a month later) and marks records whose
// landing URL any service flags. It returns the per-record labels slice
// and the set of flagged URLs.
func LabelKnownMalicious(fs *FeatureSet, services []BlocklistLookup, scans []time.Time) ([]*RecordLabels, map[string][]string, error) {
	labels := make([]*RecordLabels, len(fs.Records))
	for i := range labels {
		labels[i] = &RecordLabels{}
	}
	urlSet := map[string][]int{}
	for i, r := range fs.Records {
		if r.LandingURL != "" {
			urlSet[r.LandingURL] = append(urlSet[r.LandingURL], i)
		}
	}
	// Sort the distinct URLs so the lookups and the flagged fold run in
	// one deterministic order.
	urls := make([]string, 0, len(urlSet))
	for u := range urlSet {
		urls = append(urls, u)
	}
	sort.Strings(urls)

	flagged := map[string][]string{} // url → services
	for _, svc := range services {
		for _, at := range scans {
			verdicts, err := svc.Lookup(urls, at)
			if err != nil {
				return nil, nil, fmt.Errorf("core: blocklist %s: %w", svc.Name(), err)
			}
			for _, v := range verdicts {
				if v.Malicious && !contains(flagged[v.URL], svc.Name()) {
					flagged[v.URL] = append(flagged[v.URL], svc.Name())
				}
			}
		}
	}
	for u, svcs := range flagged {
		for _, idx := range urlSet[u] {
			labels[idx].KnownMalicious = true
			labels[idx].FlaggedBy = svcs
		}
	}
	return labels, flagged, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// PropagateMalicious applies the §5.2 guilty-by-association policy:
// every member of a cluster containing at least one known-malicious WPN
// is marked PropagatedMalicious. It returns the malicious cluster set
// (by cluster index).
func PropagateMalicious(cr *ClusterResult, labels []*RecordLabels) map[int]bool {
	malClusters := map[int]bool{}
	for ci, c := range cr.Clusters {
		mal := false
		for _, m := range c.Members {
			if labels[m].KnownMalicious {
				mal = true
				break
			}
		}
		if !mal {
			continue
		}
		malClusters[ci] = true
		for _, m := range c.Members {
			if !labels[m].KnownMalicious {
				labels[m].PropagatedMalicious = true
			}
		}
	}
	return malClusters
}

// MarkAds sets IsAd for members of ad-campaign clusters.
func MarkAds(cr *ClusterResult, labels []*RecordLabels) {
	for _, c := range cr.Clusters {
		if !c.IsAdCampaign {
			continue
		}
		for _, m := range c.Members {
			labels[m].IsAd = true
		}
	}
}
