package cluster

import (
	"math"
	"sort"
)

// Merge records one agglomeration step. Clusters are numbered like scipy's
// linkage output: leaves are 0..n-1, and the merge at step k creates
// cluster n+k.
type Merge struct {
	A, B     int     // merged cluster ids (A < B)
	Distance float64 // linkage distance at which they merged
	Size     int     // size of the resulting cluster
}

// Dendrogram is the full merge tree produced by agglomerative clustering
// over n items. It has exactly n−1 merges (or 0 if n < 2).
type Dendrogram struct {
	n      int
	merges []Merge
}

// Len returns the number of leaves.
func (d *Dendrogram) Len() int { return d.n }

// Merges returns the merge steps in non-decreasing distance order.
func (d *Dendrogram) Merges() []Merge { return d.merges }

// Linkage selects the cluster-distance update rule.
type Linkage int

// Linkage methods. All three are reducible, so the
// nearest-neighbor-chain algorithm applies.
const (
	// Average is UPGMA, the paper's choice.
	Average Linkage = iota
	// Single is nearest-neighbour linkage (chains easily).
	Single
	// Complete is furthest-neighbour linkage (tightest clusters).
	Complete
)

// String implements fmt.Stringer.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Complete:
		return "complete"
	default:
		return "average"
	}
}

// Agglomerative builds a dendrogram over the items of m using average
// linkage (UPGMA) and the nearest-neighbor-chain algorithm, which runs
// in O(n²) time and memory.
func Agglomerative(m *DistMatrix) *Dendrogram {
	return AgglomerativeLinkage(m, Average)
}

// AgglomerativeLinkage is Agglomerative with a selectable linkage
// method (the paper uses average; single and complete support the
// linkage ablation).
func AgglomerativeLinkage(m *DistMatrix, linkage Linkage) *Dendrogram {
	n := m.Len()
	dend := &Dendrogram{n: n}
	if n < 2 {
		return dend
	}

	// Working distance matrix between active clusters, full square for
	// fast row updates. Indices 0..n-1 are the current active cluster
	// slots; slot contents change as clusters merge.
	d := make([][]float32, n)
	for i := range d {
		d[i] = make([]float32, n)
		for j := 0; j < n; j++ {
			if i != j {
				d[i][j] = float32(m.At(i, j))
			}
		}
	}
	size := make([]int, n)
	id := make([]int, n) // scipy-style cluster id held by each slot
	active := make([]bool, n)
	for i := range size {
		size[i] = 1
		id[i] = i
		active[i] = true
	}

	nextID := n
	chain := make([]int, 0, n)
	remaining := n

	anyActive := func() int {
		for i, a := range active {
			if a {
				return i
			}
		}
		return -1
	}

	for remaining > 1 {
		if len(chain) == 0 {
			chain = append(chain, anyActive())
		}
		for {
			c := chain[len(chain)-1]
			// Find nearest active neighbor of c, preferring the chain
			// predecessor on ties (required for NN-chain correctness).
			best := -1
			bestD := float32(math.Inf(1))
			var prev = -1
			if len(chain) >= 2 {
				prev = chain[len(chain)-2]
			}
			for j := range d {
				if !active[j] || j == c {
					continue
				}
				dj := d[c][j]
				if dj < bestD || (dj == bestD && j == prev) {
					bestD = dj
					best = j
				}
			}
			if best == prev {
				// Reciprocal nearest neighbors: merge c and prev.
				a, b := prev, c
				chain = chain[:len(chain)-2]
				lo, hi := id[a], id[b]
				if lo > hi {
					lo, hi = hi, lo
				}
				na, nb := size[a], size[b]
				dend.merges = append(dend.merges, Merge{
					A: lo, B: hi, Distance: float64(bestD), Size: na + nb,
				})
				// Lance-Williams update into slot a.
				for j := range d {
					if !active[j] || j == a || j == b {
						continue
					}
					switch linkage {
					case Single:
						if d[b][j] < d[a][j] {
							d[a][j] = d[b][j]
						}
					case Complete:
						if d[b][j] > d[a][j] {
							d[a][j] = d[b][j]
						}
					default: // Average (UPGMA)
						d[a][j] = (float32(na)*d[a][j] + float32(nb)*d[b][j]) / float32(na+nb)
					}
					d[j][a] = d[a][j]
				}
				active[b] = false
				size[a] = na + nb
				id[a] = nextID
				nextID++
				remaining--
				break
			}
			chain = append(chain, best)
		}
	}

	// NN-chain can emit merges out of distance order; sort and renumber
	// so ids follow scipy conventions.
	sortMerges(dend)
	return dend
}

// sortMerges stably sorts merges by distance and renumbers the internal
// cluster ids accordingly. Float32 rounding in the average-linkage
// update can leave a merge slightly below the merge that created one of
// its operands, which the sort would then put first; so each merge is
// first raised to its operands' heights. NN-chain emission order is
// topological (an operand exists before it is merged), so one forward
// pass does it, and ties keep the creator first.
func sortMerges(dend *Dendrogram) {
	n := dend.n
	for k := range dend.merges {
		m := &dend.merges[k]
		for _, op := range [2]int{m.A, m.B} {
			if op >= n && dend.merges[op-n].Distance > m.Distance {
				m.Distance = dend.merges[op-n].Distance
			}
		}
	}
	order := make([]int, len(dend.merges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return dend.merges[order[a]].Distance < dend.merges[order[b]].Distance
	})
	remap := make(map[int]int, len(order)) // old internal id -> new
	sorted := make([]Merge, len(order))
	for newIdx, oldIdx := range order {
		m := dend.merges[oldIdx]
		if m.A >= n {
			m.A = remap[m.A]
		}
		if m.B >= n {
			m.B = remap[m.B]
		}
		if m.A > m.B {
			m.A, m.B = m.B, m.A
		}
		remap[n+oldIdx] = n + newIdx
		sorted[newIdx] = m
	}
	dend.merges = sorted
}

// CutByHeight assigns cluster labels by applying every merge with
// Distance <= h. Labels are 0-based and contiguous, ordered by the lowest
// leaf index in each cluster. It allocates the union forest and the
// labels, whatever n: once every leaf's root is known the forest is
// reused as the root → label table, indexed by node id.
func (d *Dendrogram) CutByHeight(h float64) []int {
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
	for i := range labels {
		labels[i] = find(i)
	}
	// label+1 of each root, 0 until the root's first leaf is seen.
	clear(parent)
	next := 0
	for i, root := range labels {
		if parent[root] == 0 {
			next++
			parent[root] = next
		}
		labels[i] = parent[root] - 1
	}
	return labels
}

// NumClusters returns the number of distinct labels.
func NumClusters(labels []int) int {
	seen := make(map[int]bool, len(labels))
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}
