package core

import (
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
)

// PipelineOptions configure a full analysis run.
type PipelineOptions struct {
	Features FeatureOptions
	Cluster  ClusterOptions
	// Services are the URL blocklists to query (VT, GSB).
	Services []BlocklistLookup
	// Scans are the lookup instants (the paper scanned during
	// collection and again a month later, catching more URLs).
	Scans []time.Time

	// DisablePropagation turns off guilty-by-association labeling
	// (ablation A3).
	DisablePropagation bool
	// DisableMeta turns off meta-clustering (ablation A3).
	DisableMeta bool

	// Metrics, Tracer and Ledger observe the whole run, clustering
	// included; set them here, not in Cluster.
	//
	// Metrics, when non-nil, records per-stage wall-times in the
	// mining_stage_ns family and the clustering's instruments (see
	// ClusterOptions.Metrics). Nil disables with no overhead.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, emits one span per pipeline stage under a
	// "pipeline" root span. Nil disables.
	Tracer *telemetry.Tracer
	// Ledger, when non-nil, records the deterministic mining event
	// stream (see ClusterOptions.Ledger); stage brackets cover the full
	// pipeline, clustering events the dispatched path.
	Ledger *telemetry.Ledger

	// MedoidIndexPath, when set, persists the post-clustering medoid
	// classify index (campaign medoids + chosen cut; see MedoidIndex) as
	// deterministic JSON, and implies ClusterOptions.BuildMedoids. Either
	// clustering route produces one. The incremental service loop
	// restores it at startup to Add-classify arrivals between full
	// re-mines without a sweep.
	MedoidIndexPath string
}

// Analysis is the full output of the mining pipeline.
type Analysis struct {
	FS          *FeatureSet
	Clusters    *ClusterResult
	Labels      []*RecordLabels
	MalClusters map[int]bool
	Meta        *MetaClusterResult
	FlaggedURLs map[string][]string
	Report      Report
}

// Report aggregates the counters behind Tables 3 and 4.
type Report struct {
	TotalCollected int // all WPNs collected (set by the caller/study)
	ValidLanding   int // records entering clustering

	// After WPN clustering (Table 4, row 1).
	Clusters           int
	Singletons         int
	AdCampaignClusters int
	Stage1Ads          int
	Stage1KnownMal     int
	Stage1AddMal       int

	// After meta clustering (Table 4, row 2).
	MetaClusters   int
	AdRelatedMeta  int
	SuspiciousMeta int
	Stage2Ads      int
	Stage2KnownMal int
	Stage2AddMal   int

	// Totals (Table 3).
	TotalAds            int
	TotalKnownMal       int
	TotalAddMal         int
	TotalMaliciousAds   int
	MaliciousCampaigns  int
	SingletonsAfterMeta int

	// Diagnostics.
	CutHeight             float64
	Silhouette            float64
	ClearedFalsePositives int
}

// MaliciousAdFraction is Table 3's headline: the fraction of WPN ads
// that are malicious.
func (r Report) MaliciousAdFraction() float64 {
	if r.TotalAds == 0 {
		return 0
	}
	return float64(r.TotalMaliciousAds) / float64(r.TotalAds)
}

// RunPipeline executes the full §5 analysis over collected WPN records:
// filter to valid landings, extract features, cluster, label via
// blocklists + propagation, meta-cluster, flag suspicious, and run the
// manual-verification pass.
func RunPipeline(records []*crawler.WPNRecord, opts PipelineOptions) (*Analysis, error) {
	// One observer spans the whole pipeline, so /miningz and the stage
	// spans cover the filter/featurize/label stages too, not just
	// clustering.
	o := newMiningObs(opts.Metrics, opts.Tracer, opts.Ledger, clusterMode(opts.Cluster), len(records), true)
	if o != nil {
		o.root = o.tr.Start("", "pipeline", 0, nil)
		defer o.finish()
	}
	opts.Cluster.obs = o

	done := o.stage("filter")
	valid := FilterValidLanding(records)
	done()
	o.clustering(len(valid))
	done = o.stage("featurize")
	fs, err := ExtractFeatures(valid, opts.Features)
	done()
	if err != nil {
		return nil, err
	}
	if len(opts.Scans) == 0 {
		opts.Scans = []time.Time{time.Now()}
	}

	if opts.MedoidIndexPath != "" {
		opts.Cluster.BuildMedoids = true
	}
	cr := ClusterWPNs(fs, opts.Cluster)
	if opts.MedoidIndexPath != "" {
		if err := SaveMedoidIndex(opts.MedoidIndexPath, cr.Medoids); err != nil {
			return nil, err
		}
	}
	done = o.stage("label")
	labels, flagged, err := LabelKnownMalicious(fs, opts.Services, opts.Scans)
	done()
	if err != nil {
		return nil, err
	}

	analyst := NewAnalyst()
	cleared := analyst.VerifyKnownMalicious(fs, labels)

	MarkAds(cr, labels)
	done = o.stage("propagate")
	malClusters := map[int]bool{}
	if !opts.DisablePropagation {
		malClusters = PropagateMalicious(cr, labels)
	} else {
		for ci, c := range cr.Clusters {
			for _, m := range c.Members {
				if labels[m].KnownMalicious {
					malClusters[ci] = true
					break
				}
			}
		}
	}
	done()

	done = o.stage("meta")
	var meta *MetaClusterResult
	if !opts.DisableMeta {
		meta = BuildMetaClusters(cr, labels, malClusters)
	} else {
		meta = &MetaClusterResult{clusterToMeta: map[int]int{}}
	}
	done()

	analyst.ConfirmPropagatedAndSuspicious(fs, labels)

	a := &Analysis{
		FS:          fs,
		Clusters:    cr,
		Labels:      labels,
		MalClusters: malClusters,
		Meta:        meta,
		FlaggedURLs: flagged,
	}
	a.Report = a.buildReport(len(records), cleared)
	return a, nil
}

func (a *Analysis) buildReport(totalCollected, cleared int) Report {
	r := Report{
		TotalCollected:        totalCollected,
		ValidLanding:          len(a.FS.Records),
		Clusters:              len(a.Clusters.Clusters),
		Singletons:            a.Clusters.NumSingletons(),
		AdCampaignClusters:    len(a.Clusters.AdCampaigns()),
		CutHeight:             a.Clusters.CutHeight,
		Silhouette:            a.Clusters.Silhouette,
		ClearedFalsePositives: cleared,
	}
	for _, l := range a.Labels {
		switch {
		case l.IsAd && !l.AdViaMeta:
			r.Stage1Ads++
			if l.KnownMalicious {
				r.Stage1KnownMal++
			} else if l.PropagatedMalicious && l.ConfirmedMalicious {
				r.Stage1AddMal++
			} else if l.Suspicious && l.ConfirmedMalicious {
				r.Stage2AddMal++ // suspicious labeling is a meta-stage product
			}
		case l.AdViaMeta:
			r.Stage2Ads++
			if l.KnownMalicious {
				r.Stage2KnownMal++
			} else if (l.PropagatedMalicious || l.Suspicious) && l.ConfirmedMalicious {
				r.Stage2AddMal++
			}
		}
		if l.IsAd && l.Malicious() {
			r.TotalMaliciousAds++
		}
	}
	r.TotalAds = r.Stage1Ads + r.Stage2Ads
	r.TotalKnownMal = r.Stage1KnownMal + r.Stage2KnownMal
	r.TotalAddMal = r.Stage1AddMal + r.Stage2AddMal

	if a.Meta != nil {
		r.MetaClusters = len(a.Meta.Meta)
		r.AdRelatedMeta = a.Meta.AdRelatedMeta()
		r.SuspiciousMeta = a.Meta.SuspiciousMeta()
		r.SingletonsAfterMeta = a.Meta.SingletonsAfterMeta(a.Clusters)
	}

	for _, c := range a.Clusters.AdCampaigns() {
		mal := false
		for _, m := range c.Members {
			if a.Labels[m].Malicious() {
				mal = true
				break
			}
		}
		if mal {
			r.MaliciousCampaigns++
		}
	}
	return r
}
