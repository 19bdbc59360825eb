package webeco

import (
	"math"
	"math/rand"
	"sync"
)

// Alexa simulates the Alexa top-1M popularity ranking used for Table 2:
// a fraction of domains receive a rank in [1, 1e6], log-uniformly
// distributed (popularity is heavy-tailed), and the rest are unranked.
type Alexa struct {
	mu    sync.RWMutex
	ranks map[string]int
}

// Top1M is the ranking cutoff.
const Top1M = 1_000_000

// NewAlexa returns an empty ranking.
func NewAlexa() *Alexa { return &Alexa{ranks: make(map[string]int)} }

// Assign gives domain a rank with probability pRanked, drawing the rank
// log-uniformly over [minRank, 1M].
func (a *Alexa) Assign(domain string, rng *rand.Rand, pRanked float64) {
	if rng.Float64() >= pRanked {
		return
	}
	const minRank = 100
	logMin, logMax := math.Log(float64(minRank)), math.Log(float64(Top1M))
	// Skew toward less-popular ranks: push sites cluster in the long
	// tail of the top-1M, with a minority of highly ranked domains.
	u := math.Pow(rng.Float64(), 0.55)
	rank := int(math.Exp(logMin + u*(logMax-logMin)))
	a.mu.Lock()
	a.ranks[domain] = rank
	a.mu.Unlock()
}

// Rank returns the domain's rank and whether it is ranked.
func (a *Alexa) Rank(domain string) (int, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r, ok := a.ranks[domain]
	return r, ok
}

// RankBucket is one row of Table 2.
type RankBucket struct {
	Label  string
	Lo, Hi int
	Count  int
}

// DefaultBuckets are Table 2's rank ranges.
func DefaultBuckets() []RankBucket {
	return []RankBucket{
		{Label: "1 – 1K", Lo: 1, Hi: 1_000},
		{Label: "1K – 10K", Lo: 1_001, Hi: 10_000},
		{Label: "10K – 100K", Lo: 10_001, Hi: 100_000},
		{Label: "100K – 1M", Lo: 100_001, Hi: Top1M},
	}
}

// Bucketize counts the given domains per rank bucket; the returned total
// is the number of ranked domains.
func (a *Alexa) Bucketize(domains []string) (buckets []RankBucket, ranked int) {
	buckets = DefaultBuckets()
	seen := make(map[string]bool)
	for _, d := range domains {
		if seen[d] {
			continue
		}
		seen[d] = true
		r, ok := a.Rank(d)
		if !ok {
			continue
		}
		ranked++
		for i := range buckets {
			if r >= buckets[i].Lo && r <= buckets[i].Hi {
				buckets[i].Count++
				break
			}
		}
	}
	return buckets, ranked
}
