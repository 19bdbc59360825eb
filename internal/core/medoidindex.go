package core

import (
	"encoding/json"
	"fmt"
	"os"

	"pushadminer/internal/simhash"
)

// MedoidEntry pins one campaign's medoid: the cluster label in the
// mined labeling and the medoid's record index into the FeatureSet.
type MedoidEntry struct {
	Label  int `json:"label"`
	Record int `json:"record"`
}

// MedoidIndex is the persistable classify state of a mined corpus: the
// campaign medoids, the cut that defined them, and the banding the
// candidate lookup uses. The incremental service loop saves it after a
// full re-mine (pushadminer -medoid-index) and restores it at startup
// (IncrementalClusterer.RestoreMedoidIndex), so arrivals can be
// Add-classified against medoids immediately — no Recluster, and
// therefore no cut sweep, between full re-mines. Only the medoid
// records are indexed, so Classify costs one banded lookup plus one
// exact distance per candidate medoid.
//
// The index is only meaningful against the FeatureSet it was mined
// from (Record indices and distances live in that feature space);
// Records pins its size as a consistency check.
type MedoidIndex struct {
	// CutHeight / Silhouette are the mined run's chosen cut; CutHeight
	// is also Classify's assignment radius.
	CutHeight  float64 `json:"cut_height"`
	Silhouette float64 `json:"silhouette"`
	// Records is the feature-set size the index was mined from.
	Records int `json:"records"`
	// Bands is the SimHash banding of the candidate lookup, at most 64
	// (one band per fingerprint bit); 0 means the blocked path's 8.
	Bands int `json:"bands"`
	// Medoids is ascending by label, so the serialized form is
	// deterministic.
	Medoids []MedoidEntry `json:"medoids"`

	ix      *simhash.BandIndex // lazily built over the medoid hashes
	candBuf []int
	marks   simhash.Marks
}

// newMedoidIndex builds the index from mined medoids: medoids[l] is
// cluster l's medoid record, or -1 for a label no cluster carries.
func newMedoidIndex(fs *FeatureSet, medoids []int, cutHeight, sil float64) *MedoidIndex {
	x := &MedoidIndex{CutHeight: cutHeight, Silhouette: sil, Records: len(fs.Records), Bands: blockBands}
	x.Medoids = make([]MedoidEntry, 0, len(medoids))
	for l, r := range medoids {
		if r >= 0 {
			x.Medoids = append(x.Medoids, MedoidEntry{Label: l, Record: r})
		}
	}
	return x
}

// Classify returns the label of the nearest medoid within the cut
// height among record i's banded candidate medoids, and that distance.
// Returns (-1, 0) when no medoid is near enough (the record opens new
// territory), the index is empty, or fs is not the size of the feature
// set the index was mined from. Deterministic: candidates arrive
// in ascending medoid position and ties keep the later (equal-distance
// updates overwrite), matching the incremental Add's own nearest-medoid
// rule.
func (x *MedoidIndex) Classify(fs *FeatureSet, i int) (label int, dist float64) {
	if x == nil || len(x.Medoids) == 0 || x.CutHeight <= 0 || x.Records != len(fs.Records) {
		return -1, 0
	}
	if x.ix == nil {
		bands := x.Bands
		if bands <= 0 {
			bands = blockBands
		}
		x.ix = simhash.NewBandIndex(bands)
		for p, me := range x.Medoids {
			x.ix.Add(p, fs.Hashes[me.Record])
		}
	}
	x.candBuf = x.ix.AppendCandidates(x.candBuf[:0], &x.marks, fs.Hashes[i])
	label, dist = -1, x.CutHeight
	for _, p := range x.candBuf {
		me := x.Medoids[p]
		if d, ok := fs.DistanceWithin(i, me.Record, dist); ok {
			label, dist = me.Label, d
		}
	}
	if label < 0 {
		return -1, 0
	}
	return label, dist
}

// SaveMedoidIndex writes the index as deterministic JSON: fixed field
// order, medoids ascending by label, trailing newline.
func SaveMedoidIndex(path string, x *MedoidIndex) error {
	data, err := json.MarshalIndent(x, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode medoid index: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("core: write medoid index: %w", err)
	}
	return nil
}

// LoadMedoidIndex reads a persisted index back, rejecting one whose
// banding or medoid records are out of range.
func LoadMedoidIndex(path string) (*MedoidIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read medoid index: %w", err)
	}
	var x MedoidIndex
	if err := json.Unmarshal(data, &x); err != nil {
		return nil, fmt.Errorf("core: parse medoid index %s: %w", path, err)
	}
	if x.Bands < 0 || x.Bands > 64 {
		return nil, fmt.Errorf("core: medoid index %s: bands %d out of range [0,64]", path, x.Bands)
	}
	for _, me := range x.Medoids {
		if me.Record < 0 || me.Record >= x.Records {
			return nil, fmt.Errorf("core: medoid index %s: record %d out of range [0,%d)", path, me.Record, x.Records)
		}
	}
	return &x, nil
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
