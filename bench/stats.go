package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// inputMean is the mean over inputs of each input's median, so every
// input weighs the same however many repetitions it got.
func inputMean(byInput [][]float64) float64 {
	var sum float64
	n := 0
	for _, xs := range byInput {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the benchmark's spread is judged
// by. Fewer than two values have no spread: both quartiles are the
// value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the percentiles tailPercentile picks from, each with the
// share of samples beyond it in parts per 10,000.
var tailLadder = []struct {
	p      float64
	beyond int
}{{99.99, 1}, {99.9, 10}, {99, 100}, {95, 500}, {90, 1000}, {75, 2500}, {50, 5000}}

// tailPercentile returns the highest percentile of the ladder that
// leaves at least ten of n samples beyond it, so a tail is never read
// off a handful of points; 50 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, l := range tailLadder {
		if n*l.beyond >= 10*10000 {
			return l.p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p*float64(len(s))/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (parallel work) count once, and
// child time outside the parent's interval counts not at all.
func selfTime(parent telemetry.Span, children []telemetry.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return parent.Duration() - covered
}

// crawlOps counts one device crawl's operations for the failed share:
// every seed visit and every notification is an attempt; a seed visit
// that failed after its retries, a notification dropped by a full
// browser, and a message estimated lost with a crashed container are
// failures. Dropped and lost messages never became records, so they are
// added to the attempts.
func crawlOps(res *crawler.Result) (attempted, failed int) {
	d := res.Degradation
	lost := d.DroppedNotifications + d.RecordsDroppedEst
	return len(res.SeedURLs) + len(res.Records) + lost, d.VisitFailures + lost
}

// pushLosses counts pushes the ecosystem never delivered: sends
// abandoned after their retries and messages collapsed out of a full
// push-service queue. faults is the ecosystem's fault counter snapshot
// (webeco.Ecosystem.FaultCounts).
func pushLosses(faults map[string]int) int {
	return faults["push_sends_abandoned"] + faults["push_queue_collapsed"]
}

// score counts a labelling's agreement with ground truth: hits are true
// positives, predicted all positives the labelling claims, actual all
// positives the truth holds. Scores of several inputs pool by adding.
type score struct {
	hits, predicted, actual float64
}

func (s score) add(o score) score {
	return score{s.hits + o.hits, s.predicted + o.predicted, s.actual + o.actual}
}

// f1 is the harmonic mean of precision and recall; 1 when neither the
// labelling nor the truth holds any positive.
func (s score) f1() float64 {
	if s.predicted == 0 && s.actual == 0 {
		return 1
	}
	if s.hits == 0 {
		return 0
	}
	p, r := s.hits/s.predicted, s.hits/s.actual
	return 2 * p * r / (p + r)
}

// pairScore scores a clustering against a reference partition by record
// pairs: a pair is predicted positive when both records share a label
// in pred, actually positive when they share one in truth. Records
// labelled negative in pred belong to no cluster.
func pairScore(pred []int, truth []string) score {
	type cell struct {
		p int
		t string
	}
	predN, truthN, both := map[int]int{}, map[string]int{}, map[cell]int{}
	for i, p := range pred {
		truthN[truth[i]]++
		if p < 0 {
			continue
		}
		predN[p]++
		both[cell{p, truth[i]}]++
	}
	pairs := func(n int) float64 { return float64(n) * float64(n-1) / 2 }
	var s score
	for _, n := range both {
		s.hits += pairs(n)
	}
	for _, n := range predN {
		s.predicted += pairs(n)
	}
	for _, n := range truthN {
		s.actual += pairs(n)
	}
	return s
}

// resetPeakRSS collects garbage, returns free memory to the operating
// system and restarts the kernel's peak-RSS record, so the next
// peakRSSMB reads the peak of what runs in between. Where the record
// cannot be reset, peakRSSMB reads the process's peak so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the peak resident set size (VmHWM) in MB since the
// last resetPeakRSS, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
