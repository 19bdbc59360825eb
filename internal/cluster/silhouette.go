package cluster

import (
	"runtime"
	"sync"
)

// Silhouette returns the mean silhouette coefficient of a labeling over
// the distance matrix m, following scikit-learn's definition: for item i
// in cluster C, a(i) is its mean distance to other members of C, b(i) the
// minimum over other clusters of its mean distance to that cluster, and
// s(i) = (b−a)/max(a,b). Items in singleton clusters score 0. The result
// is 0 if the labeling has fewer than 2 clusters or every cluster is a
// singleton.
//
// Per item the cluster sums are accumulated into a dense per-worker
// array in one O(n) pass (instead of walking a label→members map per
// cluster), and items are fanned across GOMAXPROCS. The arrays span
// the label range, so labels should be dense, like CutByHeight's
// contiguous 0..k−1. The result is bit-identical to the serial
// map-walking definition (the package tests keep it as the reference):
// per-cluster sums accumulate in the same ascending-index order and the
// total is reduced in item order.
func Silhouette(m *DistMatrix, labels []int) float64 {
	n := m.Len()
	if n == 0 || len(labels) != n {
		return 0
	}
	minL, maxL := labels[0], labels[0]
	for _, l := range labels[1:] {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	span := maxL - minL + 1
	counts := make([]int, span)
	for _, l := range labels {
		counts[l-minL]++
	}
	distinct := 0
	for _, c := range counts {
		if c > 0 {
			distinct++
		}
	}
	if distinct < 2 {
		return 0
	}

	// Pre-shifted labels save a subtraction per matrix entry.
	lab := make([]int, n)
	for i, l := range labels {
		lab[i] = l - minL
	}

	out := make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	data := m.data
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums := make([]float64, span)
			for i := w; i < n; i += workers {
				own := lab[i]
				if counts[own] == 1 {
					continue // s(i) = 0 for singletons
				}
				clear(sums)
				// Row i of the full matrix, read straight off the
				// condensed storage: for j < i the offset of (j, i)
				// advances by n-j-2 per step; for j > i the entries are
				// contiguous. Same ascending-j accumulation order as
				// m.At(i, j) — and as the serial reference — so the result
				// stays bit-identical; the skipped j == i term is the
				// zero diagonal.
				idx := i - 1 // condensed offset of (0, i)
				for j := 0; j < i; j++ {
					sums[lab[j]] += float64(data[idx])
					idx += n - 2 - j
				}
				idx = rowOffset(n, i) // condensed offset of (i, i+1)
				for j := i + 1; j < n; j++ {
					sums[lab[j]] += float64(data[idx])
					idx++
				}
				a := sums[own] / float64(counts[own]-1)
				bestB := -1.0
				for c, cnt := range counts {
					if c == own || cnt == 0 {
						continue
					}
					mean := sums[c] / float64(cnt)
					if bestB < 0 || mean < bestB {
						bestB = mean
					}
				}
				denom := a
				if bestB > denom {
					denom = bestB
				}
				if denom > 0 {
					out[i] = (bestB - a) / denom
				}
			}
		}(w)
	}
	wg.Wait()

	var total float64
	for _, s := range out {
		total += s
	}
	return total / float64(n)
}

// CutResult pairs a dendrogram cut height with its labeling and score.
type CutResult struct {
	Height     float64
	Labels     []int
	Silhouette float64
	Clusters   int
}

// BestCut evaluates candidate dendrogram cut heights and returns the cut
// with the highest mean silhouette score — the paper's criterion for
// choosing where to cut the dendrogram. maxCandidates bounds the sweep;
// if <= 0 a default of 64 is used, sampling candidate heights evenly.
// Ties prefer the lower height (tighter clusters).
func BestCut(d *Dendrogram, m *DistMatrix, maxCandidates int) CutResult {
	return BestCutConservative(d, m, maxCandidates, 0)
}

// BestCutConservative implements the paper's "tune conservative, yield
// tight clusters" variant (§5.1): among candidate cuts, it finds the
// maximum silhouette, then returns the LOWEST cut height whose
// silhouette is within tol of that maximum. tol = 0 reduces to BestCut;
// a positive tol trades a little silhouette for much tighter clusters,
// leaving fragments for meta-clustering to reconnect.
func BestCutConservative(d *Dendrogram, m *DistMatrix, maxCandidates int, tol float64) CutResult {
	if maxCandidates <= 0 {
		maxCandidates = 64
	}
	merges := d.Merges()
	if len(merges) == 0 {
		labels := make([]int, d.Len())
		for i := range labels {
			labels[i] = i
		}
		return CutResult{Labels: labels, Clusters: d.Len()}
	}

	// Distinct merge heights. Cutting at a height applies every merge at
	// that distance, so each distinct height is one candidate cut.
	heights := make([]float64, 0, len(merges))
	last := -1.0
	for _, mg := range merges {
		if mg.Distance != last {
			heights = append(heights, mg.Distance)
			last = mg.Distance
		}
	}
	cands := sampleHeights(heights, maxCandidates)

	type cand struct {
		res CutResult
	}
	var evaluated []cand
	best := CutResult{Height: -1, Silhouette: -2}
	for _, h := range cands {
		labels := d.CutByHeight(h)
		k := NumClusters(labels)
		if k < 2 || k >= d.Len() {
			continue
		}
		s := Silhouette(m, labels)
		res := CutResult{Height: h, Labels: labels, Silhouette: s, Clusters: k}
		evaluated = append(evaluated, cand{res})
		if s > best.Silhouette {
			best = res
		}
	}
	if tol > 0 && best.Height >= 0 {
		// Conservative: lowest height within tol of the best score.
		// Candidates were evaluated in ascending height order.
		for _, c := range evaluated {
			if c.res.Silhouette >= best.Silhouette-tol {
				best = c.res
				break
			}
		}
	}
	if best.Height < 0 {
		// Degenerate: no valid cut (e.g. n == 2). Fall back to leaves.
		labels := make([]int, d.Len())
		for i := range labels {
			labels[i] = i
		}
		return CutResult{Labels: labels, Clusters: d.Len()}
	}
	return best
}

// SampleCutHeights bounds a candidate cut-height sweep to at most max
// heights, sampled evenly with both the first and the final height
// always included — the same policy BestCutConservative applies to a
// single dendrogram's distinct merge heights. The blocked mining path calls it
// over the heights pooled across per-block dendrograms so its sweep
// matches the exact path's. cands must be ascending and deduplicated.
func SampleCutHeights(cands []float64, max int) []float64 {
	if max <= 0 {
		max = 64
	}
	return sampleHeights(cands, max)
}

// DedupeCutHeights collapses candidate cut heights that sit closer
// together than tol, keeping the lowest height of each near-equal run.
// Two heights within tol of each other almost always cut between the
// same pair of merges (they differ only when a merge lands in the gap,
// which tol is chosen far below), so sweeping both scores the same
// partition twice; keeping the lowest matches the conservative
// selection rule, which prefers the lowest height among equals anyway.
// cands must be ascending. tol <= 0 disables.
func DedupeCutHeights(cands []float64, tol float64) []float64 {
	if tol <= 0 || len(cands) == 0 {
		return cands
	}
	out := cands[:1]
	anchor := cands[0]
	for _, h := range cands[1:] {
		if h-anchor >= tol {
			out = append(out, h)
			anchor = h
		}
	}
	return out
}

// sampleHeights bounds the candidate sweep to at most max heights,
// sampled evenly and always including both the first and the final
// heights. The pre-fix sampling (int(float64(i)*step) over the full
// range) truncated away the tail, so when len(cands) > max the highest
// merge heights — the coarsest cuts — were never evaluated; covering
// [0, len-2] with max−1 evenly spaced samples and appending the final
// height guarantees the coarsest evaluable cut is always swept.
func sampleHeights(cands []float64, max int) []float64 {
	if len(cands) <= max {
		return cands
	}
	if max == 1 {
		return []float64{cands[len(cands)-1]}
	}
	m := max - 1
	last := len(cands) - 2
	out := make([]float64, 0, max)
	for i := 0; i < m; i++ {
		idx := 0
		if m > 1 {
			idx = i * last / (m - 1)
		}
		out = append(out, cands[idx])
	}
	return append(out, cands[len(cands)-1])
}
