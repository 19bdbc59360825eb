package cluster

import "sort"

// silhouetteSerial is the single-threaded, map-walking reference for
// Silhouette: the definition the optimized version must reproduce
// bit for bit.
func silhouetteSerial(m *DistMatrix, labels []int) float64 {
	n := m.Len()
	if n == 0 || len(labels) != n {
		return 0
	}
	groups := Members(labels)
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

// bestCutConservativeSerial is the reference conservative sweep: the
// same candidate heights and selection rule as BestCutConservative,
// scored with silhouetteSerial.
func bestCutConservativeSerial(d *Dendrogram, m *DistMatrix, maxCandidates int, tol float64) CutResult {
	var heights []float64
	for _, mg := range d.Merges() {
		if len(heights) == 0 || mg.Distance != heights[len(heights)-1] {
			heights = append(heights, mg.Distance)
		}
	}
	var evaluated []CutResult
	best := -1
	for _, h := range SampleCutHeights(heights, maxCandidates) {
		labels := d.CutByHeight(h)
		k := NumClusters(labels)
		if k < 2 || k >= d.Len() {
			continue
		}
		evaluated = append(evaluated, CutResult{Height: h, Labels: labels, Silhouette: silhouetteSerial(m, labels), Clusters: k})
		if best < 0 || evaluated[len(evaluated)-1].Silhouette > evaluated[best].Silhouette {
			best = len(evaluated) - 1
		}
	}
	if best < 0 {
		labels := make([]int, d.Len())
		for i := range labels {
			labels[i] = i
		}
		return CutResult{Labels: labels, Clusters: d.Len()}
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
