package core

import (
	"reflect"
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

// TestBlockedComponentsPartition asserts the LSH blocking is exactly
// the connected components of the confirmed candidate graph, at one,
// two and three union workers: the reference joins, in one serial
// union-find, every pair that shares a band, sits within the Hamming
// gate, and is near under the from-scratch distance. Equality rules out
// both a split block and a forest merge that over-merges; the
// reference's Components are canonical (blocks ordered by smallest
// member, members ascending). More than one block is required too: the
// exact-distance confirmation is what keeps the candidate graph from
// percolating into one component.
func TestBlockedComponentsPartition(t *testing.T) {
	fs := parityFS(t, 1, 150)
	n := len(fs.Hashes)
	ref := cluster.NewUnionFind(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if simhash.SharesBand(fs.Hashes[i], fs.Hashes[j], blockBands) &&
				simhash.Near(fs.Hashes[i], fs.Hashes[j], blockMaxHamming) &&
				naiveDistance(fs, i, j) <= blockDistance {
				ref.Union(i, j)
			}
		}
	}
	want := ref.Components()
	if len(want) < 2 {
		t.Fatalf("only %d block(s): candidate graph percolated", len(want))
	}
	for _, workers := range []int{1, 2, 3} {
		if got, _ := blockedComponents(fs, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: blocks %v, want %v", workers, got, want)
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
