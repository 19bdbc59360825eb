package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// cutByHeightMap is the map-based CutByHeight kept as the reference: it
// labels each root by first occurrence through a root → label map.
func cutByHeightMap(d *Dendrogram, h float64) []int {
	parent := make([]int, d.n+len(d.merges))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for k, m := range d.merges {
		if m.Distance > h {
			break
		}
		node := d.n + k
		parent[find(m.A)] = node
		parent[find(m.B)] = node
	}
	labels := make([]int, d.n)
	next := 0
	seen := make(map[int]int)
	for i := 0; i < d.n; i++ {
		root := find(i)
		lbl, ok := seen[root]
		if !ok {
			lbl = next
			next++
			seen[root] = lbl
		}
		labels[i] = lbl
	}
	return labels
}

// tiedMatrix draws every distance from four values, so many merges
// share a height.
func tiedMatrix(n int, rng *rand.Rand) *DistMatrix {
	m := NewDistMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, float64(1+rng.Intn(4))/4)
		}
	}
	return m
}

// cutHeights returns heights that cut d everywhere that matters: below
// every merge, at and just above each distinct merge height, between
// merge heights, and above the root.
func cutHeights(d *Dendrogram) []float64 {
	hs := []float64{-1, 0, math.Inf(1)}
	prev := math.Inf(-1)
	for _, mg := range d.Merges() {
		if mg.Distance == prev {
			continue
		}
		if !math.IsInf(prev, -1) {
			hs = append(hs, (prev+mg.Distance)/2)
		}
		hs = append(hs, mg.Distance, math.Nextafter(mg.Distance, math.Inf(1)))
		prev = mg.Distance
	}
	return hs
}

// TestCutByHeightMatchesMapReference requires the slice-indexed cut to
// give the map-based reference's labels exactly, on random and
// tie-heavy dendrograms of every linkage, at every height that changes
// the partition.
func TestCutByHeightMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 17, 64} {
		for _, kind := range []string{"random", "tied"} {
			var m *DistMatrix
			if kind == "random" {
				m = randomMatrix(n, rng)
			} else {
				m = tiedMatrix(n, rng)
			}
			for _, linkage := range []Linkage{Average, Single, Complete} {
				d := AgglomerativeLinkage(m, linkage)
				for _, h := range cutHeights(d) {
					got, want := d.CutByHeight(h), cutByHeightMap(d, h)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d %s %s h=%v: labels %v, reference %v", n, kind, linkage, h, got, want)
					}
				}
			}
		}
	}
}

// TestCutByHeightAllocsConstant requires the cut's allocation count not
// to grow with the number of leaves: the root → label table is a slice,
// not a map that grows bucket by bucket.
func TestCutByHeightAllocsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var allocs []float64
	for _, n := range []int{16, 256, 1024} {
		d := AgglomerativeLinkage(randomMatrix(n, rng), Average)
		merges := d.Merges()
		h := merges[len(merges)/2].Distance
		allocs = append(allocs, testing.AllocsPerRun(20, func() { d.CutByHeight(h) }))
	}
	for _, a := range allocs[1:] {
		if a != allocs[0] {
			t.Fatalf("allocations per cut at n = 16, 256, 1024: %v, want the same count at every n", allocs)
		}
	}
}
