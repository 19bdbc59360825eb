package cluster

// SampleCutHeights bounds a candidate cut-height sweep to at most max
// heights, sampled evenly with both the first and the final height
// always included. The mining pipeline's cut sweep calls it over the
// distinct merge heights pooled across its block dendrograms. cands
// must be ascending and deduplicated.
func SampleCutHeights(cands []float64, max int) []float64 {
	if max <= 0 {
		max = 64
	}
	return sampleHeights(cands, max)
}

// sampleHeights bounds the candidate sweep to at most max heights,
// sampled evenly and always including both the first and the final
// heights. The pre-fix sampling (int(float64(i)*step) over the full
// range) truncated away the tail, so when len(cands) > max the highest
// merge heights — the coarsest cuts — were never evaluated; covering
// [0, len-2] with max−1 evenly spaced samples and appending the final
// height guarantees the coarsest evaluable cut is always swept.
func sampleHeights(cands []float64, max int) []float64 {
	if len(cands) <= max {
		return cands
	}
	if max == 1 {
		return []float64{cands[len(cands)-1]}
	}
	m := max - 1
	last := len(cands) - 2
	out := make([]float64, 0, max)
	for i := 0; i < m; i++ {
		idx := 0
		if m > 1 {
			idx = i * last / (m - 1)
		}
		out = append(out, cands[idx])
	}
	return append(out, cands[len(cands)-1])
}
