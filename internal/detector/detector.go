// Package detector implements the paper's future-work item (§6.3.3,
// §8): an automated malicious-WPN classifier that could block push ads
// in real time, trained on the labels PushAdMiner's offline pipeline
// produces. It is a regularized logistic-regression model over hashed
// sparse features of a single WPN — message text, landing URL structure,
// redirect behaviour, and source/landing relationships — so it can score
// one notification without clustering context.
package detector

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"pushadminer/internal/crawler"
	"pushadminer/internal/textmine"
	"pushadminer/internal/urlx"
)

// FeatureDim is the hashed feature-space size (2^16 buckets).
const FeatureDim = 1 << 16

// Sample is one labeled training/evaluation instance.
type Sample struct {
	Features []Feature
	Label    bool // true = malicious
}

// Feature is one sparse feature: a hashed index with weight.
type Feature struct {
	Index  int
	Weight float64
}

func hashIdx(parts ...string) int {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))    //nolint:errcheck
		h.Write([]byte{0x1f}) //nolint:errcheck
	}
	return int(h.Sum64() % uint64(FeatureDim))
}

// Featurize converts a WPN record into sparse features. The extractor is
// deliberately per-record — no cluster context — because a real-time
// blocker sees one notification at a time.
func Featurize(r *crawler.WPNRecord) []Feature {
	seen := map[int]float64{}
	add := func(w float64, parts ...string) {
		seen[hashIdx(parts...)] += w
	}

	// Message text unigrams and bigrams.
	toks := textmine.ContentTokens(r.Title + " " + r.Body)
	for i, t := range toks {
		add(1, "w", t)
		if i > 0 {
			add(1, "b", toks[i-1], t)
		}
	}
	// Landing URL path tokens and landing/source relationships.
	for _, t := range urlx.PathTokens(r.LandingURL) {
		add(1, "p", t)
	}
	if r.LandingURL != "" {
		if urlx.SameESLD(r.SourceURL, r.LandingURL) {
			add(1, "x", "same-esld")
		} else {
			add(1, "x", "cross-esld")
		}
		host := urlx.HostOf(r.LandingURL)
		add(1, "tld", tldOf(host))
		if strings.ContainsAny(hostLabel(host), "0123456789") {
			add(1, "x", "digit-domain")
		}
		if strings.Contains(hostLabel(host), "-") {
			add(1, "x", "hyphen-domain")
		}
	}
	// Redirect behaviour.
	hops := len(r.RedirectChain)
	add(float64(hops), "x", "redirect-hops")
	if hops > 1 {
		add(1, "x", "redirected")
	}
	// Landing content tokens (capped, they dominate otherwise).
	ltoks := textmine.ContentTokens(r.LandingTitle + " " + r.LandingContent)
	if len(ltoks) > 48 {
		ltoks = ltoks[:48]
	}
	for _, t := range ltoks {
		add(0.5, "l", t)
	}
	// Device surface.
	add(1, "dev", r.Device)

	out := make([]Feature, 0, len(seen))
	for idx, w := range seen {
		out = append(out, Feature{Index: idx, Weight: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

func tldOf(host string) string {
	if i := strings.LastIndexByte(host, '.'); i >= 0 {
		return host[i+1:]
	}
	return host
}

// hostLabel returns the registrable label of a host (e.g. "win-prize"
// from "win-prize.xyz").
func hostLabel(host string) string {
	esld := urlx.ESLD(host)
	if i := strings.IndexByte(esld, '.'); i >= 0 {
		return esld[:i]
	}
	return esld
}

// Model is a binary logistic-regression classifier.
type Model struct {
	Weights []float64
	Bias    float64
}

// l2 is the L2 regularization strength of SGD training.
const l2 = 1e-5

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs       int     // default 8
	LearningRate float64 // default 0.1
	Seed         int64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	return c
}

// Train fits a model on samples with SGD over the logistic loss.
func Train(samples []Sample, cfg TrainConfig) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("detector: no training samples")
	}
	pos := 0
	for _, s := range samples {
		if s.Label {
			pos++
		}
	}
	if pos == 0 || pos == len(samples) {
		return nil, fmt.Errorf("detector: training set has only one class (%d/%d positive)", pos, len(samples))
	}
	cfg = cfg.withDefaults()
	m := &Model{Weights: make([]float64, FeatureDim)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(samples))

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LearningRate / (1 + float64(epoch))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			s := samples[i]
			p := m.prob(s.Features)
			y := 0.0
			if s.Label {
				y = 1
			}
			g := p - y
			for _, f := range s.Features {
				m.Weights[f.Index] -= lr * (g*f.Weight + l2*m.Weights[f.Index])
			}
			m.Bias -= lr * g
		}
	}
	return m, nil
}

func (m *Model) prob(fs []Feature) float64 {
	z := m.Bias
	for _, f := range fs {
		z += m.Weights[f.Index] * f.Weight
	}
	return 1 / (1 + math.Exp(-z))
}

// Score returns the malicious probability of a record.
func (m *Model) Score(r *crawler.WPNRecord) float64 { return m.prob(Featurize(r)) }

// Predict applies a 0.5 threshold.
func (m *Model) Predict(r *crawler.WPNRecord) bool { return m.Score(r) >= 0.5 }

// Metrics are binary-classification quality numbers.
type Metrics struct {
	Samples        int
	Positives      int
	TP, FP, TN, FN int
	AUC            float64
}

// Precision returns TP/(TP+FP).
func (m Metrics) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FP)
}

// Recall returns TP/(TP+FN).
func (m Metrics) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return float64(m.TP) / float64(m.TP+m.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (m Metrics) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Evaluate scores the model on labeled samples and computes confusion
// counts plus ROC AUC (by rank statistics).
func Evaluate(m *Model, samples []Sample) Metrics {
	var mt Metrics
	type scored struct {
		p   float64
		pos bool
	}
	all := make([]scored, 0, len(samples))
	for _, s := range samples {
		p := m.prob(s.Features)
		all = append(all, scored{p, s.Label})
		mt.Samples++
		if s.Label {
			mt.Positives++
		}
		pred := p >= 0.5
		switch {
		case pred && s.Label:
			mt.TP++
		case pred && !s.Label:
			mt.FP++
		case !pred && !s.Label:
			mt.TN++
		default:
			mt.FN++
		}
	}
	// AUC via the Mann–Whitney U statistic.
	sort.Slice(all, func(i, j int) bool { return all[i].p < all[j].p })
	var rankSum float64
	i := 0
	for i < len(all) {
		j := i
		for j < len(all) && all[j].p == all[i].p {
			j++
		}
		avgRank := float64(i+j+1) / 2 // 1-based average rank of the tie group
		for k := i; k < j; k++ {
			if all[k].pos {
				rankSum += avgRank
			}
		}
		i = j
	}
	nPos, nNeg := mt.Positives, mt.Samples-mt.Positives
	if nPos > 0 && nNeg > 0 {
		mt.AUC = (rankSum - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
	}
	return mt
}

// SplitSamples deterministically partitions samples into train/test by
// fraction (e.g. 0.7 = 70% train).
func SplitSamples(samples []Sample, trainFrac float64, seed int64) (train, test []Sample) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(samples))
	cut := int(float64(len(samples)) * trainFrac)
	for i, idx := range order {
		if i < cut {
			train = append(train, samples[idx])
		} else {
			test = append(test, samples[idx])
		}
	}
	return train, test
}

// PRPoint is one precision/recall operating point.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// PRCurve sweeps classification thresholds over scored samples and
// returns the precision/recall curve — what a deployer uses to pick the
// blocker's operating point (block aggressively vs. annoy users).
func PRCurve(m *Model, samples []Sample, thresholds []float64) []PRPoint {
	if len(thresholds) == 0 {
		for t := 0.05; t < 1.0; t += 0.05 {
			thresholds = append(thresholds, t)
		}
	}
	scores := make([]float64, len(samples))
	for i, s := range samples {
		scores[i] = m.prob(s.Features)
	}
	out := make([]PRPoint, 0, len(thresholds))
	for _, th := range thresholds {
		var tp, fp, fn int
		for i, s := range samples {
			pred := scores[i] >= th
			switch {
			case pred && s.Label:
				tp++
			case pred && !s.Label:
				fp++
			case !pred && s.Label:
				fn++
			}
		}
		p := PRPoint{Threshold: th}
		if tp+fp > 0 {
			p.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			p.Recall = float64(tp) / float64(tp+fn)
		}
		out = append(out, p)
	}
	return out
}
