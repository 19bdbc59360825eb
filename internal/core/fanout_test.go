package core

import (
	"reflect"
	"testing"

	"pushadminer/internal/textmine"
)

// TestExtractFeaturesWorkerParity asserts the fanned-out featurization
// loops produce exactly the feature set the serial path does — BOWs,
// path tokens, SimHash fingerprints, and the pairwise kernel — with and
// without TF-IDF weighting.
func TestExtractFeaturesWorkerParity(t *testing.T) {
	for _, tfidf := range []bool{false, true} {
		recs := SynthWPNRecords(7, 150)
		extract := func(workers int) *FeatureSet {
			fs, err := ExtractFeatures(recs, FeatureOptions{
				Word2Vec: textmine.Word2VecConfig{Seed: 7},
				TFIDF:    tfidf,
				Workers:  workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}
		serial, parallel := extract(1), extract(8)
		if !reflect.DeepEqual(serial.Features, parallel.Features) {
			t.Errorf("tfidf=%v: parallel Features differ from serial", tfidf)
		}
		if !reflect.DeepEqual(serial.Hashes, parallel.Hashes) {
			t.Errorf("tfidf=%v: parallel SimHashes differ from serial", tfidf)
		}
		if !reflect.DeepEqual(serial.Kernel, parallel.Kernel) {
			t.Errorf("tfidf=%v: parallel kernel differs from serial", tfidf)
		}
		for i := 0; i < len(recs); i++ {
			for j := i + 1; j < len(recs); j++ {
				if serial.Distance(i, j) != parallel.Distance(i, j) {
					t.Fatalf("tfidf=%v: Distance(%d,%d) diverges", tfidf, i, j)
				}
			}
		}
	}
}
