package core

import (
	"math"
	"reflect"
	"testing"

	"pushadminer/internal/cluster"
	"pushadminer/internal/telemetry"
)

// addOrder is a deterministic non-trivial arrival permutation (stride
// 7 with collision bumping), so consecutive arrivals are scattered
// across the corpus rather than replaying it in index order.
func addOrder(n int) []int {
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for i := 0; i < n; i++ {
		j := (i * 7) % n
		for seen[j] {
			j = (j + 1) % n
		}
		seen[j] = true
		order = append(order, j)
	}
	return order
}

// streamAll adds every record in index order to a fresh clusterer,
// reclustering after every `every` arrivals and once more at the end,
// and returns the clusterer with its final result.
func streamAll(fs *FeatureSet, opts ClusterOptions, every int) (*IncrementalClusterer, *ClusterResult) {
	inc := NewIncrementalClusterer(fs, opts)
	for i := range fs.Records {
		inc.Add(i)
		if (i+1)%every == 0 {
			inc.Recluster()
		}
	}
	return inc, inc.Recluster()
}

// TestIncrementalConvergesToBatch asserts the streaming clusterer,
// after ingesting the whole corpus in scattered order with periodic
// re-clusters along the way, lands on exactly the batch Blocked result:
// same labels, cut height, and silhouette. Every ingredient — the
// union-find components, the per-block dendrograms, the cut sweep, the
// stitching — depends only on the final membership, never on arrival
// order, so convergence is exact, not approximate.
func TestIncrementalConvergesToBatch(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		fs := parityFS(t, seed, 150)
		batch := ClusterWPNs(fs, ClusterOptions{Blocked: true})

		inc := NewIncrementalClusterer(fs, ClusterOptions{Blocked: true})
		for k, i := range addOrder(len(fs.Records)) {
			inc.Add(i)
			if (k+1)%40 == 0 {
				inc.Recluster()
			}
		}
		res := inc.Recluster()

		if !sameLabels(batch.Labels, res.Labels) {
			t.Fatalf("seed %d: incremental labels differ from batch\nbatch: %v\ninc:   %v",
				seed, batch.Labels, res.Labels)
		}
		if batch.CutHeight != res.CutHeight {
			t.Errorf("seed %d: cut height %v != batch %v", seed, res.CutHeight, batch.CutHeight)
		}
		if batch.Silhouette != res.Silhouette {
			t.Errorf("seed %d: silhouette %v != batch %v", seed, res.Silhouette, batch.Silhouette)
		}
		stats := inc.Stats()
		if stats.Added != len(fs.Records) {
			t.Errorf("seed %d: stats.Added = %d, want %d", seed, stats.Added, len(fs.Records))
		}
		if stats.BlocksReused == 0 {
			t.Errorf("seed %d: no block dendrograms reused across re-clusters", seed)
		}
	}
}

// TestReclusterReusesAbsorbedDistances is the parity gate for the
// distances a Recluster copies from the cached blocks a dirty component
// absorbed. At 150 records every cut runs over one freshly filled exact
// block (crossesOver), so a wrongly copied distance could never reach
// TestIncrementalConvergesToBatch's output; this test streams 700
// records, past the 512-record crossover, in scattered order, once
// reclustering every 37 arrivals and once every 200. After every
// Recluster each cached block's matrix must equal a fresh fill of its
// members bit for bit and its merges the fresh dendrogram's, and the
// final result must equal batch Blocked's labels, cut height and
// silhouette.
func TestReclusterReusesAbsorbedDistances(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		fs := parityFS(t, seed, 700)
		n := len(fs.Records)
		batch := ClusterWPNs(fs, ClusterOptions{Blocked: true})
		for _, every := range []int{37, 200} {
			reg := telemetry.New()
			inc := NewIncrementalClusterer(fs, ClusterOptions{Blocked: true, Metrics: reg})
			checkCache := func(added int) {
				t.Helper()
				for _, bd := range inc.cache {
					fresh := buildBlockDendrogram(fs, bd.members, nil, inc.opts.Linkage)
					m := len(bd.members)
					for i := 0; i < m; i++ {
						for j := i + 1; j < m; j++ {
							if got, want := bd.dm.At(i, j), fresh.dm.At(i, j); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("seed %d every %d after %d arrivals: block at %d, records %d and %d: distance %v, fresh fill %v",
									seed, every, added, bd.members[0], bd.members[i], bd.members[j], got, want)
							}
						}
					}
					if !reflect.DeepEqual(bd.dend.Merges(), fresh.dend.Merges()) {
						t.Fatalf("seed %d every %d after %d arrivals: block at %d: merges differ from a fresh fill's", seed, every, added, bd.members[0])
					}
				}
			}
			for k, i := range addOrder(n) {
				inc.Add(i)
				if (k+1)%every == 0 {
					inc.Recluster()
					checkCache(k + 1)
				}
			}
			res := inc.Recluster()
			checkCache(n)

			if !sameLabels(batch.Labels, res.Labels) {
				t.Errorf("seed %d every %d: labels differ from batch", seed, every)
			}
			if batch.CutHeight != res.CutHeight || batch.Silhouette != res.Silhouette {
				t.Errorf("seed %d every %d: cut %v silhouette %v, batch %v %v",
					seed, every, res.CutHeight, res.Silhouette, batch.CutHeight, batch.Silhouette)
			}
			if reg.Snapshot().Families["mining_pairs"]["block_linkage_reused"] == 0 {
				t.Errorf("seed %d every %d: no distance was copied, so nothing was checked", seed, every)
			}
		}
	}
}

// TestIncrementalProvisionalAssignment asserts the streaming answer:
// once a clustering exists, a new arrival near an existing campaign is
// provisionally assigned to it at Add time (nearest medoid within the
// cut height), and the final Recluster keeps the partial coverage
// consistent — records never added carry label -1 and join no cluster.
func TestIncrementalProvisionalAssignment(t *testing.T) {
	fs := parityFS(t, 1, 150)
	n := len(fs.Records)
	inc := NewIncrementalClusterer(fs, ClusterOptions{Blocked: true})

	// First wave: establish campaigns from two-thirds of the stream.
	cutoff := 2 * n / 3
	for i := 0; i < cutoff; i++ {
		inc.Add(i)
	}
	res := inc.Recluster()
	for i := cutoff; i < n; i++ {
		if res.Labels[i] != -1 {
			t.Fatalf("unadded record %d labeled %d, want -1", i, res.Labels[i])
		}
	}
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			if m >= cutoff {
				t.Fatalf("unadded record %d appears in cluster %d", m, c.ID)
			}
		}
	}

	// Second wave: the synthetic corpus is ~70% campaign traffic, so at
	// least some arrivals must land in existing campaigns at Add time.
	assignedBefore := inc.Stats().AssignedToExisting
	for i := cutoff; i < n; i++ {
		inc.Add(i)
	}
	if inc.Stats().AssignedToExisting == assignedBefore {
		t.Error("no second-wave arrival was provisionally assigned to an existing campaign")
	}
	final := inc.Recluster()
	batch := ClusterWPNs(fs, ClusterOptions{Blocked: true})
	if !sameLabels(batch.Labels, final.Labels) {
		t.Fatal("final result after staged adds differs from batch")
	}
}

// TestIncrementalLinkageVariants runs the convergence check under the
// non-default linkages too, since the block cache and sweep both thread
// the linkage through.
func TestIncrementalLinkageVariants(t *testing.T) {
	fs := parityFS(t, 2, 120)
	for _, linkage := range []cluster.Linkage{cluster.Single, cluster.Complete} {
		batch := ClusterWPNs(fs, ClusterOptions{Blocked: true, Linkage: linkage})
		_, res := streamAll(fs, ClusterOptions{Linkage: linkage}, 50)
		if !sameLabels(batch.Labels, res.Labels) {
			t.Errorf("linkage %s: incremental differs from batch", linkage)
		}
	}
}
