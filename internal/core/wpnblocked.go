package core

import (
	"math"
	"runtime"
	"sort"

	"pushadminer/internal/cluster"
	"pushadminer/internal/simhash"
)

// This file implements the LSH-blocked clustering path (§5.1 at crawl-
// fleet scale): instead of filtering an all-pairs scan through the
// SimHash band index, candidate pairs are generated *from* the index's
// buckets, gated by Hamming distance, confirmed by exact distance
// (FeatureSet.DistanceWithin, whose path bound rejects most far pairs
// without the soft-cosine quad form), and grouped into connected-
// component blocks by union-find. The union phase deals the bucket
// groups to per-worker union forests and merges the forests serially;
// the blocks are the connected components of the confirmed-edge graph
// either way. Each block is clustered exactly with the cached
// agglomerative path (in parallel across blocks), and the block-local
// dendrograms are stitched under one globally swept cut height, so
// total cost tracks the candidate count — Σ|B|² — not n².

// blockDendrogram is one block's clustering substrate: its member
// records (ascending global indices), their exact local distance
// matrix, and the dendrogram over it. It depends only on the member
// set, which is what lets the incremental clusterer cache and reuse it.
type blockDendrogram struct {
	members []int
	dm      *cluster.DistMatrix
	dend    *cluster.Dendrogram

	// Cut-sweep memo (see sweepBlockedCutMemo): one entry per applied-
	// merge count ("segment"), caching the local labeling and the
	// block's silhouette-sum contribution. The memo lives on the
	// dendrogram precisely because it is keyed the same way as the
	// incremental cache — by the member set the dendrogram was built
	// over — so a block reused across Recluster calls carries its swept
	// contributions with it. zeroCut is the zero-merge state every
	// sweep starts from (all singletons, contribution identically 0).
	memo     map[int]*blockCutMemo
	memoFIFO []int
	zeroCut  *blockCutMemo
}

// blockCutMemo is one cached cut of a block dendrogram: the local
// labeling after seg merges (nil until the rescore pass fills it; the
// seg-0 all-singleton state never materializes labels), the block's
// cluster count at that cut, and its silhouette-sum contribution under
// a given (farD, multi) context. A block's labeling only changes at
// its own merge heights, so every candidate height h maps to the
// segment seg = #merges with Distance <= h, and all heights inside one
// segment share this entry bit-for-bit.
type blockCutMemo struct {
	seg    int
	kb     int
	lab    []int
	silSum float64
	farD   float64
	multi  bool
}

// blockCutMemoCap bounds the per-block memo. Sweeps see at most
// maxCutCandidates distinct segments, so the cap only bites when
// candidate pools drift across many reclusters; eviction is FIFO by
// insertion order, which is deterministic, and an entry still
// referenced by an in-flight sweep stays reachable through its pointer
// even after leaving the map.
const blockCutMemoCap = 192

// seg0 returns the block's zero-merge memo entry (every member its own
// singleton; silhouette contribution exactly 0 under any far estimate).
func (bd *blockDendrogram) seg0() *blockCutMemo {
	if bd.zeroCut == nil {
		bd.zeroCut = &blockCutMemo{kb: len(bd.members)}
	}
	return bd.zeroCut
}

// memoOutcome classifies one cutMemoAt lookup: hit (entry valid as-is),
// refresh (labeling reusable, silhouette contribution computed under a
// different far estimate and must be rescored), miss (nothing cached).
type memoOutcome int

const (
	memoHit memoOutcome = iota
	memoRefresh
	memoMiss
)

// cutMemoAt returns the block's memo entry for the cut with seg merges
// applied, creating (miss) or retagging (refresh) it as needed. Fresh
// and retagged entries carry stale lab/silSum until the sweep's
// parallel rescore pass fills them; planning runs serially, so the map
// writes here never race with that pass.
func (bd *blockDendrogram) cutMemoAt(seg int, farD float64, multi bool) (*blockCutMemo, memoOutcome) {
	if m := bd.memo[seg]; m != nil {
		if m.farD == farD && m.multi == multi {
			return m, memoHit
		}
		m.farD, m.multi = farD, multi
		return m, memoRefresh
	}
	if bd.memo == nil {
		bd.memo = make(map[int]*blockCutMemo)
	}
	for len(bd.memo) >= blockCutMemoCap {
		delete(bd.memo, bd.memoFIFO[0])
		bd.memoFIFO = bd.memoFIFO[1:]
	}
	m := &blockCutMemo{seg: seg, farD: farD, multi: multi}
	bd.memo[seg] = m
	bd.memoFIFO = append(bd.memoFIFO, seg)
	return m, memoMiss
}

// buildBlockDendrogram clusters one block with the cached exact
// distance. prior holds blocks an earlier clustering built whose
// members all lie in members (disjoint, as components are): a pair
// inside one of them is copied from its matrix, the float32 bits
// Distance produced for that pair, and only the remaining pairs are
// computed. The batch route passes nil and computes every pair. Blocks
// are small; the fill is serial so the caller can fan out across blocks
// without nested pools.
func buildBlockDendrogram(fs *FeatureSet, members []int, prior []*blockDendrogram, linkage cluster.Linkage) *blockDendrogram {
	m := len(members)
	dm := cluster.NewDistMatrix(m)
	// owner[i] is 1 + the index of the prior block holding local item
	// i, or 0 when none does.
	owner := make([]int32, m)
	var pos []int
	for p, bd := range prior {
		// Both member lists ascend, so each search starts past the last
		// position found.
		pos = pos[:0]
		lo := 0
		for _, g := range bd.members {
			li := lo + sort.SearchInts(members[lo:], g)
			pos = append(pos, li)
			owner[li] = int32(p + 1)
			lo = li + 1
		}
		dm.CopyPairs(bd.dm, pos)
	}
	for i := 0; i < m; i++ {
		oi := owner[i]
		for j := i + 1; j < m; j++ {
			if oi != 0 && owner[j] == oi {
				continue // copied above
			}
			dm.Set(i, j, fs.Distance(members[i], members[j]))
		}
	}
	return &blockDendrogram{members: members, dm: dm, dend: cluster.AgglomerativeLinkage(dm, linkage)}
}

// Blocking parameters, shared by the blocked batch path and the
// incremental clusterer. Band collisions propose candidate pairs, the
// Hamming gate filters them cheaply, and the soft-cosine distance
// confirms: two records block together only when they are near in the
// metric the clustering itself uses. Hamming admission alone cannot
// serve here: any threshold loose enough to keep true clusters intact
// (co-cluster pairs reach HD ≈ 20) admits enough random chain edges
// (~0.1% of pairs at HD ≤ 20) to percolate the candidate graph into one
// corpus-sized component at n in the thousands, degenerating blocked to
// exact-plus-overhead. Distance confirmation is what breaks the chains:
// spurious band/Hamming collisions are textually far (median
// candidate-pair distance ≈ 0.5) while agglomeration cut heights stay
// well under 0.3, and any cluster cut at height h is connected in the
// ≤h threshold graph, so blocks at T ≥ h coarsen the exact partition by
// construction.
const (
	// blockBands is the number of SimHash bit-bands (8-bit bands of the
	// 64-bit fingerprint).
	blockBands = 8
	// blockMaxHamming is the Hamming gate on bucket pairs.
	blockMaxHamming = 24
	// blockDistance is the exact-distance confirmation threshold T.
	blockDistance = 0.3
)

// blockedEdge reports whether records i and j (already sharing a band
// bucket) are confirmed as a block edge: within the Hamming gate, then
// near under the exact distance.
func blockedEdge(fs *FeatureSet, i, j int) bool {
	if !simhash.Near(fs.Hashes[i], fs.Hashes[j], blockMaxHamming) {
		return false
	}
	_, ok := fs.DistanceWithin(i, j, blockDistance)
	return ok
}

// unionBucketPairs unions every confirmed pair within one bucket group
// into uf, skipping pairs uf already connects (the Same short-circuit is
// what keeps dense campaign buckets cheap: after the first spanning
// edges, remaining pairs cost one find each, not a distance call). It
// applies blockedEdge's test, split so that each decision is counted:
// gate-rejected, path-rejected, distance-checked, edge. The counts go
// to tally once per group.
func unionBucketPairs(uf *cluster.UnionFind, fs *FeatureSet, ids []int, tally *blockedTally) {
	var t blockedTally
	for a := 0; a < len(ids); a++ {
		for b := a + 1; b < len(ids); b++ {
			i, j := ids[a], ids[b]
			if uf.Same(i, j) {
				continue
			}
			t.gateChecked++
			if !simhash.Near(fs.Hashes[i], fs.Hashes[j], blockMaxHamming) {
				t.gateRejected++
				continue
			}
			_, ok, pathRejected := fs.distanceWithin(i, j, blockDistance)
			if pathRejected {
				t.pathRejected++
				continue
			}
			t.distChecked++
			if ok {
				t.edges++
				uf.Union(i, j)
			}
		}
	}
	tally.add(t)
}

// blockedComponents groups all records into connected-component blocks
// of the confirmed candidate graph. The band groups are sorted by size
// descending, then smallest id, and dealt to workers (<= 0: GOMAXPROCS)
// through fanOutWorkers; each worker unions its groups' confirmed pairs
// into its own forest, and a serial pass merges the forests. A pair a
// worker skips as already connected is connected by confirmed edges in
// that forest, so the merged partition is the components of the whole
// confirmed-edge graph at any worker count. Output is canonical —
// blocks ordered by smallest member, members ascending. The tally sums
// the per-worker counts in worker order; the dealing is fixed, so the
// counts are deterministic at a given worker count.
func blockedComponents(fs *FeatureSet, workers int) ([][]int, blockedTally) {
	n := len(fs.Hashes)
	ix := simhash.NewBandIndex(blockBands)
	for i, h := range fs.Hashes {
		ix.Add(i, h)
	}
	var groups [][]int
	ix.ForEachGroup(func(ids []int) { groups = append(groups, ids) })
	sort.SliceStable(groups, func(a, b int) bool {
		if la, lb := len(groups[a]), len(groups[b]); la != lb {
			return la > lb
		}
		return groups[a][0] < groups[b][0]
	})
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(groups)))
	forests := make([]*cluster.UnionFind, workers)
	for w := range forests {
		forests[w] = cluster.NewUnionFind(n)
	}
	tallies := make([]blockedTally, workers)
	fanOutWorkers(len(groups), workers, func(w, g int) {
		unionBucketPairs(forests[w], fs, groups[g], &tallies[w])
	})
	uf := forests[0]
	for _, f := range forests[1:] {
		for i := 0; i < n; i++ {
			uf.Union(i, f.Find(i))
		}
	}
	var tally blockedTally
	for _, t := range tallies {
		tally.add(t)
	}
	return uf.Components(), tally
}

// buildBlockDendrograms clusters every block in parallel across
// core.fanOut workers. Per-block size/cost observations happen inside
// the fan-out (atomic histograms); the deterministic ledger events are
// recorded afterwards in ascending block order.
func buildBlockDendrograms(fs *FeatureSet, comps [][]int, linkage cluster.Linkage, o *miningObs) []*blockDendrogram {
	blocks := make([]*blockDendrogram, len(comps))
	o.buildingBlocks(len(comps))
	fanOut(len(comps), 0, func(i int) {
		start := o.clock()
		blocks[i] = buildBlockDendrogram(fs, comps[i], nil, linkage)
		o.blockBuilt(len(comps[i]), start)
	})
	for i, c := range comps {
		o.blockLinked(i, len(c), nil)
	}
	return blocks
}

// cutBlocksAt cuts every block dendrogram at height h and returns the
// per-block local labelings plus the total cluster count.
func cutBlocksAt(blocks []*blockDendrogram, h float64) (per [][]int, k int) {
	per = make([][]int, len(blocks))
	for bi, bd := range blocks {
		lab := bd.dend.CutByHeight(h)
		per[bi] = lab
		// CutByHeight labels are contiguous from 0, so the block's
		// cluster count is max+1.
		kb := 0
		for _, l := range lab {
			if l+1 > kb {
				kb = l + 1
			}
		}
		k += kb
	}
	return per, k
}

// blockSilhouetteSum returns the sum of silhouette coefficients s(i)
// over one block's members under the local labeling lab, following
// scikit-learn's definition: a(i) is i's mean distance to the other
// members of its cluster, b(i) the least mean distance to another
// cluster, s(i) = (b−a)/max(a,b), and singleton clusters score 0.
// Within-block terms use the exact local distances; with multiBlock
// set, b(i) is capped by farD, the corpus-level cross-block far
// estimate (see blockedFar). Accumulation order is fixed (ascending
// local index), so the result is deterministic; over one block holding
// every record it is the full-matrix silhouette sum, bit for bit equal
// to the serial map-walking definition the tests keep as an oracle.
// sc is the caller's reusable scratch (see silScratch).
func blockSilhouetteSum(bd *blockDendrogram, lab []int, farD float64, multiBlock bool, sc *silScratch) float64 {
	m := len(lab)
	kb := 0
	for _, l := range lab {
		if l+1 > kb {
			kb = l + 1
		}
	}
	counts := growScratch(&sc.counts, kb)
	for _, l := range lab {
		counts[l]++
	}
	// Only members of multi-member clusters score; km counts those
	// clusters and nact their members.
	km, nact := 0, 0
	for _, c := range counts {
		if c > 1 {
			km++
			nact += c
		}
	}
	if nact == 0 {
		return 0 // all singletons
	}
	// Both scorers relabel the clusters densely, multi-member clusters
	// first: rank[c] is cluster c's dense id, mcount[r] the size of
	// multi-member cluster r. The fallback gives the singleton clusters
	// ids km..kb−1; the streaming kernel marks them −1.
	rank := growScratch(&sc.rank, kb)
	mcount := growScratch(&sc.mcount, km)
	streaming := 4*nact >= 3*m && m*km <= maxAccLen
	next, nextSingle := 0, km
	for c, cnt := range counts {
		switch {
		case cnt > 1:
			rank[c] = next
			mcount[next] = cnt
			next++
		case streaming:
			rank[c] = -1
		default:
			rank[c] = nextSingle
			nextSingle++
		}
	}
	dlab := growScratch(&sc.dlab, m)
	for i, l := range lab {
		dlab[i] = rank[l]
	}
	// The scorer only needs bucketed sums over the multi-member
	// clusters: a singleton cluster's mean is the single distance to
	// its member (x/1 is exact), and bestB is a pure min, so all
	// singleton buckets collapse into one running min per member without
	// changing a single bit of the result (see AccumMultiByLabel). That
	// keeps the dense accumulator km-wide — and its cluster-major layout
	// keeps the scatter cache-resident however large m×km grows — so one
	// triangle pass visiting each pair once replaces the per-member row
	// walks that visit every pair twice with the lower-triangle half
	// striding across the condensed storage. The per-member fallback
	// remains for cells where few members need scoring (the streaming
	// pass reads the whole triangle regardless) and as an
	// allocation-sanity bound on the accumulator.
	if streaming {
		return blockSilhouetteSumMulti(bd, dlab, mcount, farD, multiBlock, sc)
	}
	sums := growScratch(&sc.sums, kb)
	var total float64
	for i := 0; i < m; i++ {
		own := dlab[i]
		if own >= km {
			continue // s(i) = 0 for singletons
		}
		clear(sums)
		bd.dm.AccumRowByLabel(i, dlab, sums)
		a := sums[own] / float64(mcount[own]-1)
		// b(i) is a min, so its order does not matter: the multi-member
		// means first, then the singleton sums, which are their means.
		bestB := math.Inf(1)
		for c, sum := range sums[:km] {
			if c == own {
				continue
			}
			if mean := sum / float64(mcount[c]); mean < bestB {
				bestB = mean
			}
		}
		for _, sum := range sums[km:] {
			if sum < bestB {
				bestB = sum
			}
		}
		total += silhouetteTerm(a, bestB, farD, multiBlock)
	}
	return total
}

// silhouetteTerm is member i's s(i) from its a(i) and its least mean
// distance bestB to another cluster of the block (+Inf when the block
// has no other cluster), with the cross-block cap applied. It is 0 when
// b(i) is undefined (one cluster in the only block) or max(a,b) is 0.
func silhouetteTerm(a, bestB, farD float64, multiBlock bool) float64 {
	if multiBlock && farD < bestB {
		bestB = farD
	}
	if math.IsInf(bestB, 1) {
		return 0
	}
	denom := a
	if bestB > denom {
		denom = bestB
	}
	if denom > 0 {
		return (bestB - a) / denom
	}
	return 0
}

// maxAccLen bounds the streaming scorer's m×km accumulator at 64 MB;
// larger cells take the per-member row walks instead.
const maxAccLen = 64 << 20 / 8

// silScratch is one sweep worker's scoring scratch, reused across every
// cell the worker scores: the label counts, the dense relabeling, the
// fallback's per-member sums, and the streaming kernel's singleton
// minima and cluster-major accumulator. Each slice regrows only when a
// cell needs more than any earlier cell did.
type silScratch struct {
	counts, rank, mcount, dlab []int
	sums, minS, acc            []float64
}

// growScratch returns the first n entries of *buf, zeroed. The buffer is
// reused while it is large enough and otherwise regrown geometrically,
// never past maxAccLen (n itself never exceeds it), so a sweep worker
// scoring many cells allocates O(log) times instead of once per cell.
func growScratch[T int | float64](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, max(n, min(2*cap(*buf), maxAccLen)))
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// blockSilhouetteSumMulti is blockSilhouetteSum's streaming variant:
// dlab holds the dense multi-member cluster ids (−1 for singleton
// members) and mcount their sizes. All member×cluster sums come from
// one AccumMultiByLabel triangle pass, and each member's best
// singleton-cluster mean arrives as minS[i]. The multi-member means are
// then folded into minS stripe by stripe, reading the cluster-major
// accumulator in storage order. bestB is the same minimum value the
// fallback computes — multi sums accumulate the identical additions in
// the identical order, a singleton mean is one exact float32→float64
// value, and a min does not depend on the order it is taken in — so
// the returned sum is bit-identical to the fallback path.
func blockSilhouetteSumMulti(bd *blockDendrogram, dlab, mcount []int, farD float64, multiBlock bool, sc *silScratch) float64 {
	m, km := len(dlab), len(mcount)
	acc := growScratch(&sc.acc, m*km)
	minS := growScratch(&sc.minS, m)
	for i := range minS {
		minS[i] = math.Inf(1)
	}
	bd.dm.AccumMultiByLabel(dlab, km, acc, minS)
	// minS[i] becomes bestB: the least mean over every cluster but i's
	// own. Singleton members never score, so their entries are skipped.
	for c, cnt := range mcount {
		stripe := acc[c*m : (c+1)*m]
		for i, sum := range stripe {
			if own := dlab[i]; own < 0 || own == c {
				continue
			}
			if mean := sum / float64(cnt); mean < minS[i] {
				minS[i] = mean
			}
		}
	}
	var total float64
	for i, own := range dlab {
		if own < 0 {
			continue // s(i) = 0 for singletons
		}
		a := acc[own*m+i] / float64(mcount[own]-1)
		total += silhouetteTerm(a, minS[i], farD, multiBlock)
	}
	return total
}

// blockedSilhouette is the blocked stand-in for the full-matrix mean
// silhouette: exact within blocks, farD across them, averaged over
// nLive items.
func blockedSilhouette(blocks []*blockDendrogram, per [][]int, farD float64, nLive int) float64 {
	if nLive == 0 {
		return 0
	}
	multi := len(blocks) > 1
	var total float64
	var sc silScratch
	for bi, bd := range blocks {
		total += blockSilhouetteSum(bd, per[bi], farD, multi, &sc)
	}
	return total / float64(nLive)
}

// blockedFar estimates the typical cross-block distance from the
// document-vector approximation over a bounded, deterministic sample of
// block representatives (each block's smallest member; at most 64
// blocks, sampled evenly in canonical block order).
func blockedFar(fs *FeatureSet, blocks []*blockDendrogram) float64 {
	if len(blocks) < 2 {
		return 1
	}
	const maxReps = 64
	reps := make([]int, 0, maxReps)
	if len(blocks) <= maxReps {
		for _, bd := range blocks {
			reps = append(reps, bd.members[0])
		}
	} else {
		for i := 0; i < maxReps; i++ {
			reps = append(reps, blocks[i*len(blocks)/maxReps].members[0])
		}
	}
	var sum float64
	var cnt int
	for a := 0; a < len(reps); a++ {
		for b := a + 1; b < len(reps); b++ {
			sum += fs.ApproxDistance(reps[a], reps[b])
			cnt++
		}
	}
	if cnt == 0 {
		return 1
	}
	return sum / float64(cnt)
}

// stitchBlockedLabels turns per-block local labelings into one global
// label slice over all len(fs.Records) records, renumbered by first
// occurrence in ascending record order — the same convention
// Dendrogram.CutByHeight uses, so a blocked partition equal to the
// exact partition yields the identical label array. Records in no block
// (not yet added, incremental mid-stream) get -1.
func stitchBlockedLabels(nTotal int, blocks []*blockDendrogram, per [][]int) []int {
	labels := make([]int, nTotal)
	for i := range labels {
		labels[i] = -1
	}
	// Provisional encoding: a unique (block, local-label) id per record.
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
	// Canonical renumbering by first occurrence; remap[p] is
	// provisional id p's label, -1 until first seen.
	remap := make([]int, base)
	for p := range remap {
		remap[p] = -1
	}
	next := 0
	for i, p := range labels {
		if p < 0 {
			continue
		}
		if remap[p] < 0 {
			remap[p] = next
			next++
		}
		labels[i] = remap[p]
	}
	return labels
}

// blockedExactSweepMaxN is the validation-scale crossover: a sweep
// over at most this many live records split across more than one block
// cuts one exact block over all of them instead (see crossesOver), the
// block the exact route cuts, so small-n results equal the exact
// route's by construction. Cutting the blocks would not: the blocked
// silhouette estimates cross-block terms, and average-linkage merge
// heights depend on NN-chain tie-breaks, which shift when out-of-block
// slots disappear. Above it, the full matrix would defeat the
// sub-quadratic point: the sweep cuts the blocks, scored exactly within
// blocks and by a representative-sampled far estimate across them, and
// can pick a cut one or two merges away from the exact choice; the
// clusters themselves stay exact per block.
const blockedExactSweepMaxN = 512

// crossesOver reports whether the cut step swaps nBlocks blocks over
// nLive records for one exact block: a silhouette sweep (no fixed cut)
// at validation scale over more than one block.
func crossesOver(nBlocks, nLive int, opts ClusterOptions) bool {
	return opts.FixedCutHeight <= 0 && nLive <= blockedExactSweepMaxN && nBlocks > 1
}

// blockedLiveMembers collects every block member in ascending global
// order.
func blockedLiveMembers(blocks []*blockDendrogram) []int {
	var members []int
	for _, bd := range blocks {
		members = append(members, bd.members...)
	}
	sort.Ints(members)
	return members
}

// pooledCutCandidates pools every block's merge heights, dedupes equal
// ones, and samples down to maxCutCandidates. Heights are never merged
// under a tolerance: every candidate is some block's merge height, so
// two candidates however close cut different partitions.
func pooledCutCandidates(blocks []*blockDendrogram) []float64 {
	var heights []float64
	for _, bd := range blocks {
		for _, mg := range bd.dend.Merges() {
			heights = append(heights, mg.Distance)
		}
	}
	sort.Float64s(heights)
	dedup := heights[:0]
	last := -1.0
	for _, h := range heights {
		if h != last {
			dedup = append(dedup, h)
			last = h
		}
	}
	return cluster.SampleCutHeights(dedup, maxCutCandidates)
}

// sweepEval is one candidate height's outcome in a pooled sweep.
type sweepEval struct {
	sil   float64
	valid bool
	k     int
}

// selectSweepCut applies the sweep's cut-selection policy, the paper's
// "tune conservative, yield tight clusters" rule (§5.1): the highest
// valid silhouette wins; with tol > 0, the lowest height within tol of
// it wins instead. Returns the chosen candidate index, or -1 when no
// valid cut exists. evals must be in ascending height order.
func selectSweepCut(evals []sweepEval, tol float64) int {
	best, bestS := -1, -2.0
	for ci, e := range evals {
		if e.valid && e.sil > bestS {
			best, bestS = ci, e.sil
		}
	}
	if tol > 0 && best >= 0 {
		// Conservative: lowest valid height within tol of the best.
		for ci, e := range evals {
			if e.valid && e.sil >= bestS-tol {
				return ci
			}
		}
	}
	return best
}

// leafPerBlocks is the degenerate no-valid-cut fallback: every member
// its own singleton.
func leafPerBlocks(blocks []*blockDendrogram) [][]int {
	per := make([][]int, len(blocks))
	for bi, bd := range blocks {
		lab := make([]int, len(bd.members))
		for i := range lab {
			lab[i] = i
		}
		per[bi] = lab
	}
	return per
}

// sweepMemoStats summarizes one memoized sweep's delta-vs-full
// accounting. Outcome counts are per (candidate × block) cell of the
// sweep grid: an unmemoized sweep re-cuts and re-scores every cell;
// the memo computes only misses (cut + score) and refreshes (score
// only, the cached labeling reused under a new far estimate) and
// serves every other cell from cache.
type sweepMemoStats struct {
	hits, refreshes, misses int64
	// rescoredBlocks is Σ over candidates of blocks whose labeling
	// changed at that height — the memo path's actual re-cut volume.
	rescoredBlocks int64
	// scoredPairs / savedPairs split an unmemoized sweep's per-height
	// within-block pair re-reads into performed vs. skipped.
	scoredPairs, savedPairs int64
}

// sweepBlockedCutMemo is the memoized pooled sweep. The invariant it
// exploits: a block's labeling — and therefore its blockSilhouetteSum
// contribution — only changes at that block's own merge heights, so a
// candidate height maps to a per-block segment (the count of merges at
// or below it) and the whole sweep grid of (candidate × block) cells
// collapses to Σ per-block segment crossings. Planning walks candidates
// and each block's sorted merges with two pointers (serial, cheap);
// only fresh (block, segment) cells are cut and rescored, in one
// parallel fan-out; the reduce pass then walks candidates in ascending
// order maintaining the cluster count and per-block contributions as
// running state, summing the global silhouette in ascending block order
// — the same accumulation order as blockedSilhouette — so labels, cut
// height, and silhouette are bit-identical to an unmemoized sweep that
// re-cuts and re-scores every block at every height (the parity tests
// keep one as the oracle).
// Memo entries persist on the blockDendrogram, so an incremental
// Recluster that reuses a clean block also reuses its swept
// contributions (a changed far estimate downgrades them to refreshes:
// the cached labeling is still reused, only the scoring reruns).
// Over one block holding every record this is the exact route's sweep:
// the distinct merge heights of the global dendrogram, each scored by
// the full-matrix silhouette.
func sweepBlockedCutMemo(blocks []*blockDendrogram, cands []float64, farD float64, nLive int, tol float64, o *miningObs) (per [][]int, height, sil float64, ms sweepMemoStats) {
	o.sweeping(len(cands))
	if len(cands) == 0 {
		// No merges anywhere (all-singleton blocks): leaves.
		return leafPerBlocks(blocks), 0, 0, ms
	}
	multi := len(blocks) > 1

	// Planning (serial): find each block's segment crossings among the
	// candidates and the memo entry serving each crossing.
	type segChange struct {
		bi int
		m  *blockCutMemo
	}
	changedAt := make([][]segChange, len(cands))
	cur := make([]*blockCutMemo, len(blocks))
	type sweepTask struct {
		bd *blockDendrogram
		m  *blockCutMemo
		h  float64
	}
	// rescore fills one fresh/refreshed cell, scoring it in the worker's
	// scratch sc. kb is counted off the labeling, the same count
	// cutBlocksAt reports. It equals m − seg because every sorted merge
	// joins two distinct clusters (cluster.sortMerges keeps each
	// operand's creator first).
	rescore := func(t sweepTask, sc *silScratch) {
		if t.m.lab == nil {
			t.m.lab = t.bd.dend.CutByHeight(t.h)
		}
		kb := 0
		for _, l := range t.m.lab {
			if l+1 > kb {
				kb = l + 1
			}
		}
		t.m.kb = kb
		t.m.silSum = blockSilhouetteSum(t.bd, t.m.lab, t.m.farD, t.m.multi, sc)
	}
	var fresh []sweepTask
	for bi, bd := range blocks {
		cur[bi] = bd.seg0()
		merges := bd.dend.Merges()
		seg, prev := 0, 0
		for ci, h := range cands {
			for seg < len(merges) && merges[seg].Distance <= h {
				seg++
			}
			if seg == prev {
				continue
			}
			m, outcome := bd.cutMemoAt(seg, farD, multi)
			switch outcome {
			case memoMiss:
				ms.misses++
				fresh = append(fresh, sweepTask{bd: bd, m: m, h: h})
			case memoRefresh:
				ms.refreshes++
				fresh = append(fresh, sweepTask{bd: bd, m: m, h: h})
			}
			changedAt[ci] = append(changedAt[ci], segChange{bi: bi, m: m})
			prev = seg
		}
	}
	ms.hits = int64(len(cands))*int64(len(blocks)) - ms.misses - ms.refreshes

	// Rescore (parallel): fill the fresh cells, each worker reusing one
	// scratch across its cells. Each task is attributed to the height
	// bucket of the candidate that first needed it.
	workers := runtime.GOMAXPROCS(0)
	scratch := make([]silScratch, workers)
	fanOutWorkers(len(fresh), workers, func(w, ti int) {
		t := fresh[ti]
		start := o.clock()
		rescore(t, &scratch[w])
		o.sweepRescored(t.h, start)
	})

	// Reduce (serial, ascending height): apply each candidate's segment
	// crossings to the running per-block state. The cluster count is
	// exact integer bookkeeping over the per-block label counts (kb
	// deltas, not merge counts — see rescore), so k always equals what
	// cutBlocksAt would report, and the silhouette sums the per-block
	// contributions in block order, matching blockedSilhouette.
	pairsOf := make([]int64, len(blocks))
	var totalPairs int64
	for bi, bd := range blocks {
		m := int64(len(bd.members))
		pairsOf[bi] = m * (m - 1) / 2
		totalPairs += pairsOf[bi]
	}
	evals := make([]sweepEval, len(cands))
	k := nLive // seg0 everywhere: every member its own cluster
	for ci := range cands {
		start := o.clock()
		var changedPairs int64
		for _, ch := range changedAt[ci] {
			k += ch.m.kb - cur[ch.bi].kb
			cur[ch.bi] = ch.m
			changedPairs += pairsOf[ch.bi]
		}
		if k >= 2 && k < nLive {
			var total float64
			for _, m := range cur {
				total += m.silSum
			}
			evals[ci] = sweepEval{sil: total / float64(nLive), valid: true, k: k}
		} else {
			evals[ci] = sweepEval{k: k}
		}
		changed := len(changedAt[ci])
		ms.rescoredBlocks += int64(changed)
		ms.scoredPairs += changedPairs
		ms.savedPairs += totalPairs - changedPairs
		o.heightSwept(cands[ci], evals[ci].k, evals[ci].valid, evals[ci].sil, changed, changedPairs, start)
	}
	o.sweepMemo(ms)

	best := selectSweepCut(evals, tol)
	if best < 0 {
		return leafPerBlocks(blocks), 0, 0, ms
	}
	per, _ = cutBlocksAt(blocks, cands[best])
	return per, cands[best], evals[best].sil, ms
}

// withinBlockPairs counts the pairs inside the blocks: the pairs whose
// exact distance the blocked path computes above the crossover.
func withinBlockPairs(comps [][]int) int64 {
	var exact int64
	for _, c := range comps {
		m := int64(len(c))
		exact += m * (m - 1) / 2
	}
	return exact
}

// clusterWPNsBlocked is the batch entry point of the blocked path; see
// ClusterOptions.Blocked.
func clusterWPNsBlocked(fs *FeatureSet, opts ClusterOptions) *ClusterResult {
	o := opts.obs
	n := len(fs.Records)

	done := o.stage("blocks")
	comps, tally := blockedComponents(fs, 0)
	done()
	o.unionTally(tally)
	exact := withinBlockPairs(comps)
	if crossesOver(len(comps), n, opts) {
		// The cut step fills one exact block over every record.
		exact = int64(n) * int64(n-1) / 2
	}
	o.pairs(n, exact)

	done = o.stage("block_linkage")
	blocks := buildBlockDendrograms(fs, comps, opts.Linkage, o)
	done()

	res, _ := cutStep(fs, blocks, n, opts)
	return res
}
