package core

import (
	"pushadminer/internal/cluster"
	"pushadminer/internal/simhash"
)

// IncrementalStats counts what an IncrementalClusterer did so far.
type IncrementalStats struct {
	// Added is the number of records ingested.
	Added int
	// AssignedToExisting counts records whose provisional nearest-medoid
	// lookup landed them in an existing campaign at Add time.
	AssignedToExisting int
	// ProvisionalNew counts records Add could not place (no near medoid,
	// or no clustering run yet).
	ProvisionalNew int
	// Reclusters is the number of Recluster calls.
	Reclusters int
	// BlocksReused / BlocksRebuilt count per-Recluster block dendrogram
	// cache hits and misses. Reuse is what makes the stream cheaper than
	// clustering from scratch after every batch.
	BlocksReused  int
	BlocksRebuilt int
	// SweepMemoHits / SweepMemoRefreshes / SweepRescoredBlocks count the
	// cut sweep's per-block memoization across Recluster calls (see
	// sweepMemoStats): sweep-grid cells served from cached block
	// contributions, cached labelings rescored under a new far estimate,
	// and block re-cuts actually performed. Below the validation-scale
	// crossover the sweep runs over one freshly built exact block, so it
	// only misses and rescores.
	SweepMemoHits       int64
	SweepMemoRefreshes  int64
	SweepRescoredBlocks int64
}

// IncrementalClusterer mines a WPN stream without re-running the batch
// pipeline per arrival. Records live in a fixed FeatureSet (the feature
// space — embeddings, vocabularies — is trained once up front; only
// membership grows). Add ingests one record: it unions the record into
// the banded candidate graph and provisionally assigns it to the
// nearest existing campaign medoid within the last cut height.
// Recluster then re-derives campaigns, rebuilding only dirty blocks —
// connected components whose membership changed since the previous
// call — and reusing every untouched block's cached dendrogram.
//
// Because the union-find, the per-block dendrograms, the pooled cut
// sweep, and the label stitching all depend only on the *final* set of
// added records (never on arrival order), the result after all records
// are added converges exactly — labels, cut height, and silhouette — to
// what the batch Blocked path computes; the convergence test asserts
// it. Not safe for concurrent use.
type IncrementalClusterer struct {
	fs   *FeatureSet
	opts ClusterOptions

	ix      *simhash.BandIndex
	uf      *cluster.UnionFind
	added   []bool
	nAdded  int
	candBuf []int
	marks   simhash.Marks // the candidate lookup's dedup bits
	// seen marks the cluster labels an Add call already scanned: label
	// l was seen by the call whose stamp equals seen[l]. Reused across
	// calls (stamp grows each call), so the scan allocates nothing.
	seen  []uint64
	stamp uint64

	// cache maps a block's smallest member to its dendrogram. Valid
	// reuse check is size equality: components only ever gain members,
	// so an unchanged size means an unchanged member set.
	cache map[int]*blockDendrogram

	// res is the last Recluster's result, and medoids[l] the medoid
	// record of its cluster l: what Add classifies against.
	res     *ClusterResult
	medoids []int
	stats   IncrementalStats
}

// NewIncrementalClusterer prepares an empty clusterer over the feature
// set. opts is interpreted as for the Blocked batch path. Recluster
// rounds are observed through opts.Metrics and opts.Ledger (a stream
// has no stages to trace), and with either attached each round ends by
// publishing a done MiningStatus for /miningz.
func NewIncrementalClusterer(fs *FeatureSet, opts ClusterOptions) *IncrementalClusterer {
	opts.obs = newMiningObs(opts.Metrics, nil, opts.Ledger, "blocked", 0, false)
	return &IncrementalClusterer{
		fs:    fs,
		opts:  opts,
		ix:    simhash.NewBandIndex(blockBands),
		uf:    cluster.NewUnionFind(len(fs.Records)),
		added: make([]bool, len(fs.Records)),
		cache: make(map[int]*blockDendrogram),
	}
}

// Added returns the number of records ingested so far.
func (c *IncrementalClusterer) Added() int { return c.nAdded }

// Stats returns the counters accumulated so far.
func (c *IncrementalClusterer) Stats() IncrementalStats { return c.stats }

// Result returns the labeling from the most recent Recluster (nil
// before the first). Records not yet added carry label -1 and belong to
// no cluster.
func (c *IncrementalClusterer) Result() *ClusterResult { return c.res }

// Add ingests record i (an index into the FeatureSet). It returns the
// provisional campaign label — the label of the nearest existing
// campaign medoid among the record's banded candidates, if that medoid
// sits within the last Recluster's cut height — or -1 when the record
// opens (provisionally) new territory. The provisional label is a cheap
// streaming answer; Recluster is the authoritative one.
func (c *IncrementalClusterer) Add(i int) int {
	if c.added[i] {
		return c.provisionalLabel(i)
	}
	h := c.fs.Hashes[i]
	c.candBuf = c.ix.AppendCandidates(c.candBuf[:0], &c.marks, h)

	prov := -1
	if c.res != nil && c.res.CutHeight > 0 {
		bestD := c.res.CutHeight
		if len(c.seen) < len(c.medoids) {
			c.seen = make([]uint64, len(c.medoids))
		}
		c.stamp++
		for _, j := range c.candBuf {
			l := c.res.Labels[j]
			if l < 0 || c.seen[l] == c.stamp {
				continue
			}
			c.seen[l] = c.stamp
			if d, ok := c.fs.DistanceWithin(i, c.medoids[l], bestD); ok {
				bestD, prov = d, l
			}
		}
	}
	if prov >= 0 {
		c.stats.AssignedToExisting++
	} else {
		c.stats.ProvisionalNew++
	}

	// The real state change: confirmed unions into the candidate graph
	// (Hamming gate, then exact-distance confirmation — the same edge
	// test the batch path applies). Every pair of added records is
	// examined exactly once — when the later of the two arrives — so
	// the final components match the batch blockedComponents exactly.
	for _, j := range c.candBuf {
		if !c.uf.Same(i, j) && blockedEdge(c.fs, i, j) {
			c.uf.Union(i, j)
		}
	}
	c.ix.Add(i, h)
	c.added[i] = true
	c.nAdded++
	c.stats.Added++
	return prov
}

func (c *IncrementalClusterer) provisionalLabel(i int) int {
	if c.res == nil {
		return -1
	}
	return c.res.Labels[i]
}

// Recluster re-derives campaigns over everything added so far and
// returns the result (also available via Result). Blocks whose
// membership is unchanged since the previous call reuse their cached
// dendrograms; only dirty blocks are re-clustered (in parallel), and
// each copies the distances of the cached blocks it absorbed, so only
// pairs new to one block are computed. The cut sweep and stitching
// always re-run — they are cheap relative to linkage and depend on the
// global pool of block heights.
func (c *IncrementalClusterer) Recluster() *ClusterResult {
	o := c.opts.obs
	o.clustering(c.nAdded)
	comps := c.uf.ComponentsOf(func(i int) bool { return c.added[i] })

	blocks := make([]*blockDendrogram, len(comps))
	var rebuild []int
	for bi, comp := range comps {
		if bd := c.cache[comp[0]]; bd != nil && len(bd.members) == len(comp) {
			blocks[bi] = bd
			c.stats.BlocksReused++
		} else {
			rebuild = append(rebuild, bi)
		}
	}
	// A dirty component absorbed the cached blocks keyed by its own
	// members: components only gain members, so every cached block lies
	// wholly inside one live component. Its pairs keep their distances.
	prior := make([][]*blockDendrogram, len(rebuild))
	for k, bi := range rebuild {
		for _, g := range comps[bi] {
			if bd := c.cache[g]; bd != nil && len(bd.members) > 1 {
				prior[k] = append(prior[k], bd)
			}
		}
	}
	done := o.stage("block_linkage")
	o.buildingBlocks(len(rebuild))
	fanOut(len(rebuild), 0, func(k int) {
		bi := rebuild[k]
		start := o.clock()
		blocks[bi] = buildBlockDendrogram(c.fs, comps[bi], prior[k], c.opts.Linkage)
		o.blockBuilt(len(comps[bi]), start)
	})
	done()
	for k, bi := range rebuild {
		o.blockLinked(bi, len(comps[bi]), prior[k])
	}
	c.stats.BlocksRebuilt += len(rebuild)
	// Drop stale cache entries (blocks that merged into bigger ones) so
	// the cache tracks the live component set.
	next := make(map[int]*blockDendrogram, len(blocks))
	for bi, bd := range blocks {
		next[comps[bi][0]] = bd
	}
	c.cache = next

	// Reused blocks carry their cut memos (the memo lives on the
	// blockDendrogram), so clean blocks' sweep contributions survive
	// across Recluster calls.
	res, cut, per, ms := cutStep(c.fs, blocks, c.nAdded, c.opts)
	c.res, c.medoids = res, blockMedoids(cut, per, res.Labels)
	c.stats.SweepMemoHits += ms.hits
	c.stats.SweepMemoRefreshes += ms.refreshes
	c.stats.SweepRescoredBlocks += ms.rescoredBlocks
	c.stats.Reclusters++
	o.reclustered(len(comps), len(comps)-len(rebuild), len(rebuild), len(c.res.Clusters))
	return c.res
}

// blockMedoids computes each cluster's medoid — the member minimizing
// the sum of within-cluster distances, ties to the lowest record index
// — from the blocks' exact local matrices. Clusters never span blocks
// (linkage is per-block), so each is fully resolvable from one local
// matrix. Returns the medoid record of each global label, -1 for a
// label no record carries.
func blockMedoids(blocks []*blockDendrogram, per [][]int, labels []int) []int {
	k := 0
	for _, l := range labels {
		k = max(k, l+1)
	}
	medoids := make([]int, k)
	for l := range medoids {
		medoids[l] = -1
	}
	var start, flat []int // local indices grouped by local label
	for bi, bd := range blocks {
		start, flat = groupByLabel(per[bi], start, flat)
		for l := 0; l+1 < len(start); l++ {
			g := flat[start[l]:start[l+1]]
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
