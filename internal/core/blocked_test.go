package core

import (
	"testing"

	"pushadminer/internal/cluster"
	"pushadminer/internal/simhash"
)

// TestClusterParityBlockedVsExact asserts the sub-quadratic blocked
// path recovers the exact path's partition across seeds and linkages:
// at the conservative cut the exact path never merges across LSH
// blocks, so clustering each block exactly and sweeping the pooled
// block heights lands on the same labeling. The blocked silhouette
// substitutes a scalar far estimate for cross-block b(i) terms, so it
// is only checked within a tolerance.
func TestClusterParityBlockedVsExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, linkage := range []cluster.Linkage{cluster.Average, cluster.Single, cluster.Complete} {
			fs := parityFS(t, seed, 150)
			exact := ClusterWPNs(fs, ClusterOptions{Linkage: linkage})
			blocked := ClusterWPNs(fs, ClusterOptions{Linkage: linkage, Blocked: true})
			if !sameLabels(exact.Labels, blocked.Labels) {
				t.Fatalf("seed %d linkage %s: labels differ\nexact:   %v\nblocked: %v",
					seed, linkage, exact.Labels, blocked.Labels)
			}
			if diff := blocked.Silhouette - exact.Silhouette; diff > 0.2 || diff < -0.2 {
				t.Errorf("seed %d linkage %s: blocked silhouette %v far from exact %v",
					seed, linkage, blocked.Silhouette, exact.Silhouette)
			}
		}
	}
}

// TestBlockedComponentsPartition asserts the LSH blocking yields a true
// partition in canonical order: every record in exactly one block,
// members ascending, blocks ordered by smallest member, and more than
// one block (the corpus is not one giant component — the exact-distance
// confirmation is what prevents that percolation).
func TestBlockedComponentsPartition(t *testing.T) {
	fs := parityFS(t, 1, 150)
	comps := blockedComponents(fs, nil)
	if len(comps) < 2 {
		t.Fatalf("only %d block(s): candidate graph percolated", len(comps))
	}
	seen := make(map[int]bool)
	prevMin := -1
	for _, comp := range comps {
		if len(comp) == 0 {
			t.Fatal("empty block")
		}
		if comp[0] <= prevMin {
			t.Fatalf("blocks not ordered by smallest member: %d after %d", comp[0], prevMin)
		}
		prevMin = comp[0]
		for i, id := range comp {
			if i > 0 && comp[i-1] >= id {
				t.Fatalf("block members not ascending: %v", comp)
			}
			if seen[id] {
				t.Fatalf("record %d in two blocks", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(fs.Records) {
		t.Fatalf("blocks cover %d of %d records", len(seen), len(fs.Records))
	}
	// Blocking must respect the confirmed candidate graph: any two
	// records that share a band, sit within the Hamming gate, and are
	// confirmed near by exact distance belong to one block.
	for i := range fs.Hashes {
		for j := i + 1; j < len(fs.Hashes); j++ {
			if simhash.SharesBand(fs.Hashes[i], fs.Hashes[j], blockBands) && blockedEdge(fs, i, j) {
				bi, bj := -1, -1
				for b, comp := range comps {
					for _, id := range comp {
						if id == i {
							bi = b
						}
						if id == j {
							bj = b
						}
					}
				}
				if bi != bj {
					t.Fatalf("linked pair (%d,%d) split across blocks %d/%d", i, j, bi, bj)
				}
			}
		}
	}
}

// TestBlockedFixedCutHeight asserts the fixed-cut ablation works on the
// blocked path and agrees with the exact path's partition at the same
// height (a low height cuts strictly within blocks).
func TestBlockedFixedCutHeight(t *testing.T) {
	fs := parityFS(t, 2, 120)
	const h = 0.3
	exact := ClusterWPNs(fs, ClusterOptions{FixedCutHeight: h})
	blocked := ClusterWPNs(fs, ClusterOptions{FixedCutHeight: h, Blocked: true})
	if !sameLabels(exact.Labels, blocked.Labels) {
		t.Fatalf("fixed-cut labels differ\nexact:   %v\nblocked: %v", exact.Labels, blocked.Labels)
	}
	if blocked.CutHeight != h {
		t.Fatalf("blocked CutHeight = %v, want %v", blocked.CutHeight, h)
	}
}
