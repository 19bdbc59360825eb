package core

import (
	"slices"
	"sort"

	"pushadminer/internal/cluster"
	"pushadminer/internal/simhash"
	"pushadminer/internal/textmine"
	"pushadminer/internal/urlx"
)

// naiveDistance is the from-scratch reference for FeatureSet.Distance:
// three quad-forms per pair (both self quad-forms recomputed every
// time) and a map-based Jaccard, as distances were computed before the
// kernel cache existed. The two agree bit for bit.
func naiveDistance(fs *FeatureSet, i, j int) float64 {
	fi, fj := &fs.Features[i], &fs.Features[j]
	switch {
	case fs.UseText && fs.UsePath:
		text := 1 - textmine.SoftCosineWith(fi.Text, fj.Text, fs.Sim)
		path := urlx.Jaccard(fi.PathTokens, fj.PathTokens)
		return (text + path) / 2
	case fs.UseText:
		return 1 - textmine.SoftCosineWith(fi.Text, fj.Text, fs.Sim)
	case fs.UsePath:
		return urlx.Jaccard(fi.PathTokens, fj.PathTokens)
	default:
		return 0
	}
}

// sweepBlockedCutFull is the unmemoized pooled sweep, the oracle
// sweepBlockedCutMemo must match bit for bit: every candidate height
// re-cuts every block and re-scores the whole blocked silhouette. A
// non-nil o gets one heightSwept event per candidate, as the memoized
// sweep reports, with changed and scored_pairs counting every block and
// every within-block pair.
func sweepBlockedCutFull(blocks []*blockDendrogram, cands []float64, farD float64, nLive int, tol float64, o *miningObs) (per [][]int, height, sil float64) {
	var allPairs int64
	for _, bd := range blocks {
		m := int64(len(bd.members))
		allPairs += m * (m - 1) / 2
	}
	evals := make([]sweepEval, len(cands))
	for ci, h := range cands {
		p, k := cutBlocksAt(blocks, h)
		var scored int64
		if k >= 2 && k < nLive {
			evals[ci] = sweepEval{sil: blockedSilhouette(blocks, p, farD, nLive), valid: true, k: k}
			scored = allPairs
		} else {
			evals[ci] = sweepEval{k: k}
		}
		o.heightSwept(h, k, evals[ci].valid, evals[ci].sil, len(blocks), scored, o.clock())
	}
	best := selectSweepCut(evals, tol)
	if best < 0 {
		return leafPerBlocks(blocks), 0, 0
	}
	per, _ = cutBlocksAt(blocks, cands[best])
	return per, cands[best], evals[best].sil
}

// silhouetteSerial is the single-threaded, map-walking reference for
// the mean silhouette coefficient over the distance matrix m, following
// scikit-learn's definition: for item i in cluster C, a(i) is its mean
// distance to the other members of C, b(i) the minimum over other
// clusters of its mean distance to that cluster, and s(i) =
// (b−a)/max(a,b). Items in singleton clusters score 0; fewer than two
// clusters score 0. The cut step's scorer (blockSilhouetteSum over one
// block holding every record) must reproduce it bit for bit.
func silhouetteSerial(m *cluster.DistMatrix, labels []int) float64 {
	n := m.Len()
	if n == 0 || len(labels) != n {
		return 0
	}
	groups := membersOf(labels)
	if len(groups) < 2 {
		return 0
	}
	clusterIDs := make([]int, 0, len(groups))
	for id := range groups {
		clusterIDs = append(clusterIDs, id)
	}
	sort.Ints(clusterIDs)

	var total float64
	for i := 0; i < n; i++ {
		own := labels[i]
		if len(groups[own]) == 1 {
			continue // s(i) = 0 for singletons
		}
		var a float64
		bestB := -1.0
		for _, cid := range clusterIDs {
			members := groups[cid]
			var sum float64
			for _, j := range members {
				if j != i {
					sum += m.At(i, j)
				}
			}
			if cid == own {
				a = sum / float64(len(members)-1)
			} else {
				mean := sum / float64(len(members))
				if bestB < 0 || mean < bestB {
					bestB = mean
				}
			}
		}
		denom := a
		if bestB > denom {
			denom = bestB
		}
		if denom > 0 {
			total += (bestB - a) / denom
		}
	}
	return total / float64(n)
}

// cutResult is one conservative sweep's outcome: the chosen height, its
// labeling and score, and the cluster count.
type cutResult struct {
	Height     float64
	Labels     []int
	Silhouette float64
	Clusters   int
}

// bestCutConservativeSerial is the reference conservative sweep over
// one dendrogram: candidate cuts at its distinct merge heights, sampled
// down to maxCutCandidates with the first and last kept, each scored
// with silhouetteSerial when it leaves 2 ≤ k < n clusters; the best
// score wins, or with tol > 0 the lowest height within tol of it. With
// no valid cut every item is its own cluster at height 0.
func bestCutConservativeSerial(d *cluster.Dendrogram, m *cluster.DistMatrix, tol float64) cutResult {
	var heights []float64
	for _, mg := range d.Merges() {
		if len(heights) == 0 || mg.Distance != heights[len(heights)-1] {
			heights = append(heights, mg.Distance)
		}
	}
	var evaluated []cutResult
	best := -1
	for _, h := range cluster.SampleCutHeights(heights, maxCutCandidates) {
		labels := d.CutByHeight(h)
		k := cluster.NumClusters(labels)
		if k < 2 || k >= d.Len() {
			continue
		}
		evaluated = append(evaluated, cutResult{Height: h, Labels: labels, Silhouette: silhouetteSerial(m, labels), Clusters: k})
		if best < 0 || evaluated[len(evaluated)-1].Silhouette > evaluated[best].Silhouette {
			best = len(evaluated) - 1
		}
	}
	if best < 0 {
		labels := make([]int, d.Len())
		for i := range labels {
			labels[i] = i
		}
		return cutResult{Labels: labels, Clusters: d.Len()}
	}
	if tol > 0 {
		for _, c := range evaluated {
			if c.Silhouette >= evaluated[best].Silhouette-tol {
				return c
			}
		}
	}
	return evaluated[best]
}

// membersOf groups item indices by label.
func membersOf(labels []int) map[int][]int {
	out := make(map[int][]int)
	for i, l := range labels {
		out[l] = append(out[l], i)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// finishClusterResultMap is the map-based reference for
// finishClusterResult: members grouped in a map by label, each domain
// set a map, labels visited in sorted order.
func finishClusterResultMap(fs *FeatureSet, labels []int, height, sil float64) *ClusterResult {
	members := membersOf(labels)
	delete(members, -1)
	ids := make([]int, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	res := &ClusterResult{CutHeight: height, Silhouette: sil, Labels: labels}
	for _, id := range ids {
		c := &WPNCluster{ID: id, Members: members[id]}
		srcSet, landSet := map[string]bool{}, map[string]bool{}
		for _, m := range c.Members {
			if d := fs.Records[m].SourceDomain; d != "" {
				srcSet[d] = true
			}
			if d := fs.Features[m].LandingESLD; d != "" {
				landSet[d] = true
			}
		}
		c.SourceDomains = sortedKeys(srcSet)
		c.LandingDomains = sortedKeys(landSet)
		c.IsAdCampaign = !c.Singleton() && len(c.SourceDomains) > 1
		res.Clusters = append(res.Clusters, c)
	}
	return res
}

// stitchBlockedLabelsMap is the map-based reference for
// stitchBlockedLabels: the same provisional (block, local label) ids,
// renumbered by first occurrence through a map.
func stitchBlockedLabelsMap(nTotal int, blocks []*blockDendrogram, per [][]int) []int {
	labels := make([]int, nTotal)
	for i := range labels {
		labels[i] = -1
	}
	base := 0
	for bi, bd := range blocks {
		kb := 0
		for li, g := range bd.members {
			l := per[bi][li]
			labels[g] = base + l
			if l+1 > kb {
				kb = l + 1
			}
		}
		base += kb
	}
	remap := make(map[int]int, base)
	next := 0
	for i := 0; i < nTotal; i++ {
		if labels[i] < 0 {
			continue
		}
		nl, ok := remap[labels[i]]
		if !ok {
			nl = next
			next++
			remap[labels[i]] = nl
		}
		labels[i] = nl
	}
	return labels
}

// blockMedoidsMap is the map-based reference for blockMedoids: cluster
// label -> medoid record, each block's groups appended per local label.
func blockMedoidsMap(blocks []*blockDendrogram, per [][]int, labels []int) map[int]int {
	medoids := make(map[int]int)
	for bi, bd := range blocks {
		lab := per[bi]
		kb := 0
		for _, l := range lab {
			if l+1 > kb {
				kb = l + 1
			}
		}
		groups := make([][]int, kb) // local indices per local label
		for li, l := range lab {
			groups[l] = append(groups[l], li)
		}
		for _, g := range groups {
			if len(g) == 0 {
				continue
			}
			best, bestSum := -1, 0.0
			for _, li := range g {
				var sum float64
				for _, lj := range g {
					if lj != li {
						sum += bd.dm.At(li, lj)
					}
				}
				if best < 0 || sum < bestSum {
					best, bestSum = li, sum
				}
			}
			medoids[labels[bd.members[best]]] = bd.members[best]
		}
	}
	return medoids
}

// medoidsOracle recomputes each cluster's medoid from scratch: the
// member with the least sum of float32-stored distances (each pair in
// ascending record order, as the block matrices are filled) to the
// other members, summed in ascending member order, ties to the lowest
// record. It returns the medoid record of each cluster label.
func medoidsOracle(fs *FeatureSet, res *ClusterResult) map[int]int {
	medoids := make(map[int]int, len(res.Clusters))
	for _, c := range res.Clusters {
		best, bestSum := -1, 0.0
		for _, m := range c.Members {
			var sum float64
			for _, o := range c.Members {
				if o != m {
					sum += float64(float32(fs.Distance(min(m, o), max(m, o))))
				}
			}
			if best < 0 || sum < bestSum {
				best, bestSum = m, sum
			}
		}
		medoids[c.ID] = best
	}
	return medoids
}

// provisionalLabelOracle is a brute-force transcription of the answer
// IncrementalClusterer.Add gives arrival i: the already-added records
// sharing a band with i, in ascending record order, each cluster label
// visited once (records added since the last Recluster carry none), and
// the nearest medoid within the last cut height kept, a tie going to
// the label visited later. -1 before the first Recluster, after a zero
// cut, or when no medoid is near enough.
func provisionalLabelOracle(fs *FeatureSet, added []int, res *ClusterResult, medoids map[int]int, i int) int {
	if res == nil || res.CutHeight <= 0 {
		return -1
	}
	cands := slices.Clone(added)
	slices.Sort(cands)
	label, best := -1, res.CutHeight
	visited := map[int]bool{}
	for _, j := range cands {
		l := res.Labels[j]
		if l < 0 || visited[l] || !simhash.SharesBand(fs.Hashes[i], fs.Hashes[j], blockBands) {
			continue
		}
		visited[l] = true
		if d := fs.Distance(i, medoids[l]); d <= best {
			label, best = l, d
		}
	}
	return label
}
