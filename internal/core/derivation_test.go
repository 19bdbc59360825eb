package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pushadminer/internal/cluster"
	"pushadminer/internal/crawler"
)

func TestMembers(t *testing.T) {
	got := membersOf([]int{1, 0, 1, 2})
	want := map[int][]int{0: {1}, 1: {0, 2}, 2: {3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("membersOf = %v, want %v", got, want)
	}
}

// derivationFS returns n blank records whose source and landing domains
// are drawn from small pools that include the empty string, so domains
// repeat within clusters and some records have none.
func derivationFS(n int, rng *rand.Rand) *FeatureSet {
	sources := []string{"", "a.com", "b.com", "c.net", "d.org"}
	landings := []string{"", "x.com", "y.com", "a.com"}
	fs := &FeatureSet{Records: make([]*crawler.WPNRecord, n), Features: make([]Features, n)}
	for i := range fs.Records {
		fs.Records[i] = &crawler.WPNRecord{SourceDomain: sources[rng.Intn(len(sources))]}
		fs.Features[i].LandingESLD = landings[rng.Intn(len(landings))]
	}
	return fs
}

// derivationBlocks splits a random subset of n records into blocks
// (the rest are not yet added and carry -1), each with a random local
// matrix of tie-prone distances and a local labeling of the given
// shape: "random" (dense, up to four clusters), "gaps" (labels with
// unused values), "singletons", or "one" (one cluster per block).
func derivationBlocks(n int, shape string, live float64, rng *rand.Rand) ([]*blockDendrogram, [][]int) {
	var blocks []*blockDendrogram
	var per [][]int
	var cur []int
	flush := func() {
		if len(cur) == 0 {
			return
		}
		m := len(cur)
		dm := cluster.NewDistMatrix(m)
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				dm.Set(i, j, float64(1+rng.Intn(3))/10)
			}
		}
		lab := make([]int, m)
		for li := range lab {
			switch shape {
			case "random":
				lab[li] = rng.Intn(4)
			case "gaps":
				lab[li] = 2 * rng.Intn(3)
			case "singletons":
				lab[li] = li
			}
		}
		if shape == "random" {
			lab = denseLabels(lab)
		}
		blocks = append(blocks, &blockDendrogram{members: cur, dm: dm})
		per = append(per, lab)
		cur = nil
	}
	for i := 0; i < n; i++ {
		if rng.Float64() >= live {
			continue
		}
		cur = append(cur, i)
		if rng.Intn(6) == 0 {
			flush()
		}
	}
	flush()
	return blocks, per
}

// TestClusterDerivationMatchesMapOracle checks the cut step's tail —
// label stitching, cluster derivation with domain lists, medoids and
// the medoid index — against the map-based references it replaced, on
// block labelings of every shape with records not yet added, on random
// labelings with -1 records and unused labels, on an empty corpus, and
// on one cluster holding every record.
func TestClusterDerivationMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(t *testing.T, fs *FeatureSet, labels []int) {
		t.Helper()
		got := finishClusterResult(fs, labels, 0.25, 0.5)
		want := finishClusterResultMap(fs, labels, 0.25, 0.5)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("labels %v: clusters differ from the map oracle\n got %s\nwant %s", labels, clusterDump(got), clusterDump(want))
		}
	}
	for trial := 0; trial < 40; trial++ {
		for _, shape := range []string{"random", "gaps", "singletons", "one"} {
			t.Run(fmt.Sprintf("%s/%d", shape, trial), func(t *testing.T) {
				n := rng.Intn(80)
				fs := derivationFS(n, rng)
				live := []float64{1, 0.7, 0.3}[trial%3]
				blocks, per := derivationBlocks(n, shape, live, rng)
				labels := stitchBlockedLabels(n, blocks, per)
				if want := stitchBlockedLabelsMap(n, blocks, per); !reflect.DeepEqual(labels, want) {
					t.Fatalf("stitched labels %v, map oracle %v", labels, want)
				}
				check(t, fs, labels)
				got := newMedoidIndex(fs, blockMedoids(blocks, per, labels), 0.25, 0.5)
				want := newMedoidIndexMap(fs, blockMedoidsMap(blocks, per, labels), 0.25, 0.5)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("medoid index %+v, map oracle %+v", got.Medoids, want.Medoids)
				}
			})
		}
	}
	t.Run("random-labels", func(t *testing.T) {
		for trial := 0; trial < 100; trial++ {
			n := rng.Intn(60)
			labels := make([]int, n)
			for i := range labels {
				labels[i] = rng.Intn(12) - 2 // -2 and -1 mark records not yet added
				if labels[i] < 0 {
					labels[i] = -1
				}
			}
			check(t, derivationFS(n, rng), labels)
		}
	})
	t.Run("empty", func(t *testing.T) {
		check(t, derivationFS(0, rng), nil)
		check(t, derivationFS(5, rng), []int{-1, -1, -1, -1, -1})
	})
	t.Run("one-cluster", func(t *testing.T) {
		n := 50
		fs := derivationFS(n, rng)
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		dm := cluster.NewDistMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dm.Set(i, j, float64(1+rng.Intn(3))/10)
			}
		}
		blocks := []*blockDendrogram{{members: members, dm: dm}}
		per := [][]int{make([]int, n)}
		labels := stitchBlockedLabels(n, blocks, per)
		check(t, fs, labels)
		got := newMedoidIndex(fs, blockMedoids(blocks, per, labels), 0.25, 0.5)
		want := newMedoidIndexMap(fs, blockMedoidsMap(blocks, per, labels), 0.25, 0.5)
		if !reflect.DeepEqual(got, want) || len(got.Medoids) != 1 {
			t.Fatalf("medoid index %+v, map oracle %+v", got.Medoids, want.Medoids)
		}
	})
}

// clusterDump renders a result's clusters for a failure message.
func clusterDump(res *ClusterResult) string {
	s := fmt.Sprintf("%d clusters (nil: %v)", len(res.Clusters), res.Clusters == nil)
	for _, c := range res.Clusters {
		s += fmt.Sprintf(" {%d %v src=%q land=%q ad=%v}", c.ID, c.Members, c.SourceDomains, c.LandingDomains, c.IsAdCampaign)
	}
	return s
}
