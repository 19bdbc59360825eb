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

	"pushadminer/internal/crawler"
	"pushadminer/internal/simhash"
	"pushadminer/internal/textmine"
	"pushadminer/internal/urlx"
)

// Features are the per-WPN clustering features of §5.1.1: the message
// text (title + body) as a bag of words, and the landing URL path
// tokens. Domain names are deliberately excluded from both.
type Features struct {
	Text       textmine.BOW
	PathTokens []string
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
	// SoftOpts are the soft-cosine options the model was built with.
	SoftOpts textmine.SoftCosineOptions
	// UseText and UsePath toggle feature groups (ablation A2).
	UseText, UsePath bool
}

// FeatureOptions configure extraction.
type FeatureOptions struct {
	Word2Vec textmine.Word2VecConfig
	SoftCos  textmine.SoftCosineOptions
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
	sim := textmine.NewTermSimMatrix(emb, opts.SoftCos)
	fs := &FeatureSet{
		Records:  records,
		Features: make([]Features, len(records)),
		Emb:      emb,
		Sim:      sim,
		Hashes:   make([]simhash.Hash, len(records)),
		SoftOpts: opts.SoftCos,
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
		fs.Features[i] = Features{Text: bow, PathTokens: paths}
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
	return fs, nil
}

// Distance is the pairwise WPN distance of §5.1.1: the average of the
// soft-cosine text distance and the Jaccard URL-path distance (or just
// one of them under ablation). It runs on the cached kernel — one cross
// quad-form per call, self norms precomputed — and a merge-based Jaccard
// over the already-sorted path tokens; the values are bit-identical to
// recomputing every quad-form from scratch.
func (fs *FeatureSet) Distance(i, j int) float64 {
	fi, fj := &fs.Features[i], &fs.Features[j]
	switch {
	case fs.UseText && fs.UsePath:
		text := 1 - fs.Kernel.SoftCosine(i, j)
		path := urlx.JaccardSorted(fi.PathTokens, fj.PathTokens)
		return (text + path) / 2
	case fs.UseText:
		return 1 - fs.Kernel.SoftCosine(i, j)
	case fs.UsePath:
		return urlx.JaccardSorted(fi.PathTokens, fj.PathTokens)
	default:
		return 0
	}
}

// ApproxDistance is the cheap far-pair estimate the blocked path uses
// for its cross-block silhouette terms: the text component is the
// precomputed document-vector cosine (one dense dot product instead of
// a sparse quad-form), the path component is the same merge Jaccard as
// Distance (already cheap).
func (fs *FeatureSet) ApproxDistance(i, j int) float64 {
	fi, fj := &fs.Features[i], &fs.Features[j]
	switch {
	case fs.UseText && fs.UsePath:
		text := fs.Kernel.ApproxDistance(i, j)
		path := urlx.JaccardSorted(fi.PathTokens, fj.PathTokens)
		return (text + path) / 2
	case fs.UseText:
		return fs.Kernel.ApproxDistance(i, j)
	case fs.UsePath:
		return urlx.JaccardSorted(fi.PathTokens, fj.PathTokens)
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
