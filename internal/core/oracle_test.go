package core

import (
	"pushadminer/internal/telemetry"
	"pushadminer/internal/textmine"
	"pushadminer/internal/urlx"
)

// naiveDistance is the from-scratch reference for FeatureSet.Distance:
// three quad-forms per pair (both self quad-forms recomputed every
// time) and a map-based Jaccard, as distances were computed before the
// kernel cache existed. The two agree bit for bit.
func naiveDistance(fs *FeatureSet, i, j int) float64 {
	fi, fj := &fs.Features[i], &fs.Features[j]
	switch {
	case fs.UseText && fs.UsePath:
		text := 1 - textmine.SoftCosineWith(fi.Text, fj.Text, fs.Sim)
		path := urlx.Jaccard(fi.PathTokens, fj.PathTokens)
		return (text + path) / 2
	case fs.UseText:
		return 1 - textmine.SoftCosineWith(fi.Text, fj.Text, fs.Sim)
	case fs.UsePath:
		return urlx.Jaccard(fi.PathTokens, fj.PathTokens)
	default:
		return 0
	}
}

// sweepBlockedCutFull is the unmemoized pooled sweep, the oracle
// sweepBlockedCutMemo must match bit for bit: every candidate height
// re-cuts every block and re-scores the whole blocked silhouette. A
// non-nil led gets one height_swept event per candidate, as the
// memoized sweep emits, with changed and scored_pairs counting every
// block and every within-block pair.
func sweepBlockedCutFull(blocks []*blockDendrogram, cands []float64, farD float64, nLive int, tol float64, led *telemetry.Ledger) (per [][]int, height, sil float64) {
	var allPairs int64
	for _, bd := range blocks {
		m := int64(len(bd.members))
		allPairs += m * (m - 1) / 2
	}
	evals := make([]sweepEval, len(cands))
	for ci, h := range cands {
		p, k := cutBlocksAt(blocks, h)
		var scored int64
		if k >= 2 && k < nLive {
			evals[ci] = sweepEval{sil: blockedSilhouette(blocks, p, farD, nLive), valid: true, k: k}
			scored = allPairs
		} else {
			evals[ci] = sweepEval{k: k}
		}
		ledgerHeightSwept(led, h, k, evals[ci].valid, evals[ci].sil, len(blocks), scored)
	}
	best := selectSweepCut(evals, tol)
	if best < 0 {
		return leafPerBlocks(blocks), 0, 0
	}
	per, _ = cutBlocksAt(blocks, cands[best])
	return per, cands[best], evals[best].sil
}
