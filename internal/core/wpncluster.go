package core

import (
	"slices"

	"pushadminer/internal/cluster"
	"pushadminer/internal/telemetry"
)

// WPNCluster is one group of similar WPN messages (§5.1): the output of
// the conservative first-stage clustering.
type WPNCluster struct {
	ID      int
	Members []int // indices into the FeatureSet's record slice

	// SourceDomains are the distinct eSLDs of the pages that pushed the
	// member messages; more than one marks the cluster as an ad
	// campaign.
	SourceDomains []string
	// LandingDomains are the distinct eSLDs of the members' landing
	// pages.
	LandingDomains []string

	// IsAdCampaign is the §5.1.1 label: similar WPNs pushed from
	// multiple distinct source domains.
	IsAdCampaign bool
}

// Singleton reports whether the cluster holds a single message.
func (c *WPNCluster) Singleton() bool { return len(c.Members) == 1 }

// maxCutCandidates bounds the silhouette sweep: at most this many
// candidate cut heights are scored, sampled evenly over the distinct
// merge heights with the first and last always included.
const maxCutCandidates = 64

// ClusterOptions configure the first-stage clustering.
type ClusterOptions struct {
	// FixedCutHeight, if > 0, bypasses the silhouette selection and cuts
	// the dendrogram at this height (ablation A1).
	FixedCutHeight float64
	// ConservativeTol implements the paper's tight-cluster tuning: the
	// lowest cut whose silhouette is within this tolerance of the best
	// is chosen. Default 0.15; set negative for exact best-silhouette.
	ConservativeTol float64
	// Linkage selects the agglomeration rule (default cluster.Average,
	// the paper's UPGMA; Single/Complete support the linkage ablation).
	Linkage cluster.Linkage
	// Blocked selects the sub-quadratic LSH-blocked path: candidate
	// pairs are generated *from* the SimHash band index (instead of
	// an all-pairs scan), grouped into connected-component blocks by
	// union-find, clustered exactly within each block in parallel, and
	// stitched under one globally swept cut height. Cost tracks the
	// candidate count, not n². The blocking is fixed by blockBands,
	// blockMaxHamming and blockDistance; see DESIGN.md "Streaming
	// mining".
	Blocked bool
	// BuildMedoids attaches the persistable medoid classify index
	// (campaign medoids + chosen cut; see MedoidIndex) to the batch
	// result on either route, at the cost of one medoid pass over the
	// clusters. IncrementalClusterer.MedoidIndex exports the same index
	// from a stream. See PipelineOptions.MedoidIndexPath.
	BuildMedoids bool

	// Metrics, when non-nil, records clustering-stage wall-times
	// (distance_matrix, linkage or blocks, block_linkage, then cut) in
	// the mining_stage_ns family, the cluster_pairs family's
	// exact-vs-pruned pair counts, and the cut sweep's attribution
	// (mining_sweep_*, mining_pairs). Nil disables with no overhead on
	// the distance hot loop.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, emits one span per clustering stage. Nil
	// disables. These three serve a standalone ClusterWPNs or
	// IncrementalClusterer: RunPipeline observes its clustering through
	// PipelineOptions' sinks.
	Tracer *telemetry.Tracer
	// Ledger, when non-nil, records a deterministic event stream of the
	// run (stage brackets, blocks clustered, heights swept, recluster
	// rounds) — byte-stable across reruns at a fixed seed, unlike the
	// timing-carrying telemetry snapshot. Works with or without
	// Metrics/Tracer. See DESIGN.md "Event ledger".
	Ledger *telemetry.Ledger
	// obs observes the run: set by RunPipeline, whose observer spans the
	// whole pipeline, and otherwise built from the three sinks above by
	// ClusterWPNs or NewIncrementalClusterer (nil when all are nil).
	obs *miningObs
}

func (o ClusterOptions) conservativeTol() float64 {
	if o.ConservativeTol < 0 {
		return 0
	}
	if o.ConservativeTol == 0 {
		return 0.15
	}
	return o.ConservativeTol
}

// ClusterResult is the outcome of first-stage clustering.
type ClusterResult struct {
	Clusters   []*WPNCluster
	CutHeight  float64
	Silhouette float64
	Labels     []int
	// Medoids is the persistable medoid classify index, populated when
	// ClusterOptions.BuildMedoids is set and by every
	// IncrementalClusterer.Recluster. Nil otherwise.
	Medoids *MedoidIndex
}

// ClusterWPNs runs the §5.1.1 pipeline stage: pairwise distances,
// average-linkage agglomerative clustering, and a silhouette-chosen
// dendrogram cut, then derives per-cluster source/landing domain sets
// and the ad-campaign label. It has two routes: the exact one (the
// default: every pair's distance, one global dendrogram) and the
// blocked one (ClusterOptions.Blocked). Both end in the same cut step
// (cutStep); the exact route hands it one block over all records.
func ClusterWPNs(fs *FeatureSet, opts ClusterOptions) *ClusterResult {
	// A standalone run observes itself; RunPipeline passes the observer
	// that spans the whole pipeline.
	if opts.obs == nil {
		opts.obs = newMiningObs(opts.Metrics, opts.Tracer, opts.Ledger, clusterMode(opts), len(fs.Records), true)
		defer opts.obs.finish()
	}
	if opts.Blocked {
		return clusterWPNsBlocked(fs, opts)
	}
	o := opts.obs
	n := len(fs.Records)

	done := o.stage("distance_matrix")
	dm := cluster.Compute(n, fs.Distance)
	done()
	o.pairs(n, int64(n)*int64(n-1)/2)

	done = o.stage("linkage")
	all := &blockDendrogram{members: make([]int, n), dm: dm, dend: cluster.AgglomerativeLinkage(dm, opts.Linkage)}
	done()
	for i := range all.members {
		all.members[i] = i
	}

	res, _ := cutStep(fs, []*blockDendrogram{all}, n, opts)
	return res
}

// cutStep is the one cut every clustering runs, over block dendrograms
// holding nLive records: the exact route's single block over all
// records, the blocked route's LSH blocks, or the blocks of the records
// an IncrementalClusterer has added. It cuts every block at
// opts.FixedCutHeight when that is set, and otherwise at the height the
// memoized silhouette sweep picks; at validation scale the sweep runs
// over one exact block of the live records instead of the blocks (see
// blockedExactSweepMaxN). The per-block labelings are stitched into
// global labels under the "cut" stage, then the cut_chosen event is
// recorded and the clusters derived, with the medoid index when
// opts.BuildMedoids is set.
func cutStep(fs *FeatureSet, blocks []*blockDendrogram, nLive int, opts ClusterOptions) (*ClusterResult, sweepMemoStats) {
	o := opts.obs
	done := o.stage("cut")
	if crossesOver(len(blocks), nLive, opts) {
		// One block over the live records, filled in parallel like the
		// exact route's matrix.
		members := blockedLiveMembers(blocks)
		dm := cluster.Compute(len(members), func(i, j int) float64 {
			return fs.Distance(members[i], members[j])
		})
		blocks = []*blockDendrogram{{members: members, dm: dm, dend: cluster.AgglomerativeLinkage(dm, opts.Linkage)}}
	}
	var per [][]int
	var height, sil float64
	var ms sweepMemoStats
	if opts.FixedCutHeight > 0 {
		var k int
		per, k = cutBlocksAt(blocks, opts.FixedCutHeight)
		height = opts.FixedCutHeight
		if k >= 2 {
			sil = blockedSilhouette(blocks, per, blockedFar(fs, blocks), nLive)
		}
	} else {
		per, height, sil, ms = sweepBlockedCutMemo(blocks, pooledCutCandidates(blocks), blockedFar(fs, blocks), nLive, opts.conservativeTol(), o)
	}
	labels := stitchBlockedLabels(len(fs.Records), blocks, per)
	done()

	o.cutChosen(height, labels, sil)
	res := finishClusterResult(fs, labels, height, sil)
	if opts.BuildMedoids {
		res.Medoids = newMedoidIndex(fs, blockMedoids(blocks, per, labels), height, sil)
	}
	return res, ms
}

// finishClusterResult derives the per-cluster source/landing domain
// sets and ad-campaign labels from a labeling — the tail the exact,
// blocked and incremental clusterings share. Negative labels mark
// records not yet covered (an incremental clusterer mid-stream) and
// produce no cluster. Clusters come in ascending label order, their
// members share one flat array, and each domain list is sorted and
// deduplicated in one reused buffer.
func finishClusterResult(fs *FeatureSet, labels []int, height, sil float64) *ClusterResult {
	start, flat := groupByLabel(labels, nil, nil)
	res := &ClusterResult{CutHeight: height, Silhouette: sil, Labels: labels}
	var buf []string
	for l := 0; l+1 < len(start); l++ {
		members := flat[start[l]:start[l+1]:start[l+1]]
		if len(members) == 0 {
			continue
		}
		c := &WPNCluster{ID: l, Members: members}
		buf = buf[:0]
		for _, m := range members {
			if d := fs.Records[m].SourceDomain; d != "" {
				buf = append(buf, d)
			}
		}
		c.SourceDomains = sortedUnique(buf)
		buf = buf[:0]
		for _, m := range members {
			if d := fs.Features[m].LandingESLD; d != "" {
				buf = append(buf, d)
			}
		}
		c.LandingDomains = sortedUnique(buf)
		c.IsAdCampaign = !c.Singleton() && len(c.SourceDomains) > 1
		res.Clusters = append(res.Clusters, c)
	}
	return res
}

// groupByLabel groups the indices i with labels[i] >= 0 by label, a
// counting sort into the reused buffers start and flat: label l's
// indices are flat[start[l]:start[l+1]], ascending, and len(start) is
// the largest label + 2. An unused label gets an empty range.
func groupByLabel(labels, start, flat []int) ([]int, []int) {
	k := 0
	for _, l := range labels {
		k = max(k, l+1)
	}
	start = slices.Grow(start[:0], k+1)[:k+1]
	clear(start)
	for _, l := range labels {
		if l >= 0 {
			start[l+1]++
		}
	}
	for l := 1; l <= k; l++ {
		start[l] += start[l-1]
	}
	flat = slices.Grow(flat[:0], start[k])[:start[k]]
	// Filling advances start[l] to the end of label l's range, which is
	// where label l+1's range begins: one shift restores the starts.
	for i, l := range labels {
		if l >= 0 {
			flat[start[l]] = i
			start[l]++
		}
	}
	copy(start[1:], start[:k])
	start[0] = 0
	return start, flat
}

// sortedUnique sorts buf in place and returns a copy of its distinct
// strings, ascending; never nil.
func sortedUnique(buf []string) []string {
	slices.Sort(buf)
	buf = slices.Compact(buf)
	return append(make([]string, 0, len(buf)), buf...)
}

// NumSingletons counts singleton clusters.
func (r *ClusterResult) NumSingletons() int {
	n := 0
	for _, c := range r.Clusters {
		if c.Singleton() {
			n++
		}
	}
	return n
}

// AdCampaigns returns the clusters labeled as ad campaigns.
func (r *ClusterResult) AdCampaigns() []*WPNCluster {
	var out []*WPNCluster
	for _, c := range r.Clusters {
		if c.IsAdCampaign {
			out = append(out, c)
		}
	}
	return out
}
