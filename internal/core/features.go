// Package core implements PushAdMiner's data analysis module (§5): WPN
// feature extraction, conservative document clustering into WPN clusters
// and ad campaigns, malicious labeling via URL blocklists with
// guilty-by-association propagation, bipartite meta-clustering over
// landing domains, suspicious-campaign identification (including
// duplicate-ads detection), and the simulated manual-verification pass —
// plus the study driver that runs crawls against a synthetic ecosystem
// and reproduces the paper's tables and figures.
package core

import (
	"fmt"
	"slices"

	"pushadminer/internal/crawler"
	"pushadminer/internal/simhash"
	"pushadminer/internal/textmine"
	"pushadminer/internal/urlx"
)

// Features are the per-WPN clustering features of §5.1.1: the message
// text (title + body) as a bag of words, and the landing URL path
// tokens. Domain names are deliberately excluded from both. Distances
// merge over the FeatureSet's interned path ids; PathTokens stays for
// readers and the reference distances of the tests.
type Features struct {
	Text       textmine.BOW
	PathTokens []string
	// LandingESLD is the landing URL's eSLD ("" if unparseable). It is
	// not a distance feature: every clustering's result lists its
	// clusters' landing domains from it, so the URL is parsed for it
	// once here rather than on every Recluster.
	LandingESLD string
}

// FeatureSet holds the features for a record set, the trained word2vec
// term-similarity model, and the precomputed pairwise kernel: per-record
// self quad-form norms and document vectors (textmine.DocKernel) plus
// SimHash fingerprints over the combined text+path tokens for banded
// candidate generation. Everything a pairwise Distance call needs is
// computed once here instead of once per pair.
type FeatureSet struct {
	Records  []*crawler.WPNRecord
	Features []Features
	Emb      *textmine.Embeddings
	Sim      *textmine.TermSimMatrix
	// Kernel caches per-document self norms and document vectors; see
	// Distance.
	Kernel *textmine.DocKernel
	// Hashes are per-record SimHash fingerprints over the message's
	// content tokens and landing-path tokens, backing the band index of
	// the blocked clustering path.
	Hashes []simhash.Hash
	// UseText and UsePath toggle feature groups (ablation A2).
	UseText, UsePath bool

	// pathIDs are the records' PathTokens interned to int32 ids, each
	// record's ids ascending (see internPaths). The Jaccard merge runs
	// over them instead of comparing strings.
	pathIDs [][]int32
}

// FeatureOptions configure extraction.
type FeatureOptions struct {
	Word2Vec textmine.Word2VecConfig
	// DisableText / DisablePath ablate a feature group.
	DisableText, DisablePath bool
	// TFIDF weights bag-of-words vectors by inverse document frequency
	// instead of raw term frequency (an extension beyond the paper's
	// plain counts; see the ablation bench).
	TFIDF bool
	// Workers bounds the fan-out of the per-record featurization loops
	// (tokenization, BOW/SimHash construction); word2vec training stays
	// single-pass. Every loop writes slot-indexed slices, so the output
	// is identical at any worker count. 1 forces the serial path; <= 0
	// defaults to GOMAXPROCS.
	Workers int
}

// ExtractFeatures trains word2vec on the records' message texts and
// builds per-record features plus the cached pairwise kernel.
func ExtractFeatures(records []*crawler.WPNRecord, opts FeatureOptions) (*FeatureSet, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("core: no records to extract features from")
	}
	docs := make([][]string, len(records))
	fanOut(len(records), opts.Workers, func(i int) {
		docs[i] = textmine.Tokenize(records[i].Title + " " + records[i].Body)
	})
	emb, err := textmine.TrainWord2Vec(docs, opts.Word2Vec)
	if err != nil {
		return nil, err
	}
	// Each text is tokenized once: training keeps the stopwords, then the
	// bag-of-words and fingerprints take the same tokens without them,
	// filtered in place (docs is not used again).
	content := make([][]string, len(records))
	fanOut(len(records), opts.Workers, func(i int) {
		content[i] = textmine.DropStopwords(docs[i])
	})
	sim := textmine.NewTermSimMatrix(emb)
	fs := &FeatureSet{
		Records:  records,
		Features: make([]Features, len(records)),
		Emb:      emb,
		Sim:      sim,
		Hashes:   make([]simhash.Hash, len(records)),
		UseText:  !opts.DisableText,
		UsePath:  !opts.DisablePath,
	}
	vocab := emb.Vocab()
	var idf *textmine.IDF
	if opts.TFIDF {
		idDocs := make([][]int, len(records))
		fanOut(len(records), opts.Workers, func(i int) {
			idDocs[i] = vocab.LookupIDs(content[i])
		})
		idf = textmine.ComputeIDF(idDocs, vocab.Len())
	}
	bows := make([]textmine.BOW, len(records))
	fanOut(len(records), opts.Workers, func(i int) {
		r := records[i]
		ids := vocab.LookupIDs(content[i])
		var bow textmine.BOW
		if idf != nil {
			bow = textmine.NewBOWTFIDF(ids, idf)
		} else {
			bow = textmine.NewBOW(ids)
		}
		paths := urlx.PathTokens(r.LandingURL)
		bows[i] = bow
		fs.Features[i] = Features{Text: bow, PathTokens: paths, LandingESLD: urlx.ESLDOf(r.LandingURL)}
		// Fingerprint over both distance components so banded pruning
		// respects whichever feature groups are active.
		fp := make([]string, 0, len(content[i])+len(paths))
		if fs.UseText {
			fp = append(fp, content[i]...)
		}
		if fs.UsePath {
			fp = append(fp, paths...)
		}
		fs.Hashes[i] = simhash.Of(fp)
		// Nothing reads these tokens again. Dropping them now keeps them
		// out of the live heap that a collection during featurize
		// measures, which would raise the heap goal clustering then fills
		// (about 5 MB of peak RSS on the mine-batch benchmark).
		content[i] = nil
	})
	fs.Kernel = textmine.NewDocKernel(bows, sim, emb)
	fs.pathIDs = internPaths(fs.Features)
	return fs, nil
}

// internPaths maps every record's path tokens to int32 ids. One
// dictionary is filled in record order, so the ids are deterministic,
// and each record's ids are sorted ascending for the Jaccard merge.
// PathTokens are deduplicated, so the merge counts the same
// intersection and union as over the strings, and every distance keeps
// its bits. All records' ids share one backing array.
func internPaths(feats []Features) [][]int32 {
	total := 0
	for i := range feats {
		total += len(feats[i].PathTokens)
	}
	dict := make(map[string]int32)
	flat := make([]int32, 0, total)
	out := make([][]int32, len(feats))
	for i := range feats {
		start := len(flat)
		for _, tok := range feats[i].PathTokens {
			id, ok := dict[tok]
			if !ok {
				id = int32(len(dict))
				dict[tok] = id
			}
			flat = append(flat, id)
		}
		ids := flat[start:len(flat):len(flat)]
		slices.Sort(ids)
		out[i] = ids
	}
	return out
}

// pathDistance is the Jaccard distance between records i's and j's
// landing-path token sets.
func (fs *FeatureSet) pathDistance(i, j int) float64 {
	return urlx.JaccardSorted(fs.pathIDs[i], fs.pathIDs[j])
}

// Distance is the pairwise WPN distance of §5.1.1: the average of the
// soft-cosine text distance and the Jaccard URL-path distance (or just
// one of them under ablation). It runs on the cached kernel — one cross
// quad-form per call, self norms precomputed — and a merge-based Jaccard
// over the interned path ids; the values are bit-identical to
// recomputing every quad-form from scratch over the token strings.
func (fs *FeatureSet) Distance(i, j int) float64 {
	switch {
	case fs.UseText && fs.UsePath:
		text := 1 - fs.Kernel.SoftCosine(i, j)
		path := fs.pathDistance(i, j)
		return (text + path) / 2
	case fs.UseText:
		return 1 - fs.Kernel.SoftCosine(i, j)
	case fs.UsePath:
		return fs.pathDistance(i, j)
	default:
		return 0
	}
}

// DistanceWithin reports whether Distance(i, j) <= t and, when it is,
// returns that distance bit for bit. It is the threshold test of the
// blocked union phase, the stream's nearest-medoid scan and
// MedoidIndex.Classify. With both feature groups on it computes the
// path Jaccard first and rejects the pair without the soft-cosine quad
// form when path/2 > t. The reject is exact in floating point: the text
// distance 1 − SoftCosine lies in [0, 1] (SoftCosineNormed clamps the
// cosine to [0, 1]), IEEE rounding is monotone so fl(text+path) ≥ path,
// and halving is exact, so Distance ≥ path/2 > t. A NaN distance fails
// d <= t, as it does without the bound. On false the returned value is
// only a lower bound on the distance.
func (fs *FeatureSet) DistanceWithin(i, j int, t float64) (float64, bool) {
	d, ok, _ := fs.distanceWithin(i, j, t)
	return d, ok
}

// distanceWithin is DistanceWithin that also reports whether the path
// bound rejected the pair before the full distance was computed. Under
// either ablation there is no bound: the full distance decides.
func (fs *FeatureSet) distanceWithin(i, j int, t float64) (d float64, ok, pathRejected bool) {
	if !fs.UseText || !fs.UsePath {
		d = fs.Distance(i, j)
		return d, d <= t, false
	}
	path := fs.pathDistance(i, j)
	if lb := path / 2; lb > t {
		return lb, false, true
	}
	text := 1 - fs.Kernel.SoftCosine(i, j)
	d = (text + path) / 2
	return d, d <= t, false
}

// ApproxDistance is the cheap far-pair estimate the blocked path uses
// for its cross-block silhouette terms: the text component is the
// precomputed document-vector cosine (one dense dot product instead of
// a sparse quad-form), the path component is the same merge Jaccard as
// Distance (already cheap).
func (fs *FeatureSet) ApproxDistance(i, j int) float64 {
	switch {
	case fs.UseText && fs.UsePath:
		text := fs.Kernel.ApproxDistance(i, j)
		path := fs.pathDistance(i, j)
		return (text + path) / 2
	case fs.UseText:
		return fs.Kernel.ApproxDistance(i, j)
	case fs.UsePath:
		return fs.pathDistance(i, j)
	default:
		return 0
	}
}

// FilterValidLanding keeps the records whose click led to a valid
// landing page (§6.2's filter before clustering).
func FilterValidLanding(records []*crawler.WPNRecord) []*crawler.WPNRecord {
	out := make([]*crawler.WPNRecord, 0, len(records))
	for _, r := range records {
		if r.ValidLanding() {
			out = append(out, r)
		}
	}
	return out
}
