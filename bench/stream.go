package main

import (
	"fmt"
	"time"

	"pushadminer/internal/core"
)

// runStream replays the corpus as an arrival stream into an
// IncrementalClusterer. Recluster runs after every reclusterN arrivals,
// inline, as a single-threaded service would. A final untimed Recluster
// fixes the output checked against the batch path.
//
// The timed repetitions (p nil) replay the arrivals back to back and
// report the time inside Add and Recluster. The traced path is an open
// loop instead: record i is due at i/rate seconds, whether or not the
// classifier has kept up, and each Add is timed from its due time, so a
// stall delays every arrival queued behind it. The open loop is kept out
// of the timed repetitions: pacing leaves a session idle for a third of
// its length and makes its Adds slower by a varying amount (same input,
// same process: 1.9–2.4 s of Add time per session paced, 1.8–2.1 s back
// to back), so fewer repetitions fit a run and each spreads more.
func runStream(z sizes, st *state, p *probe) (outcome, error) {
	opts := core.ClusterOptions{Blocked: true}
	var interval time.Duration
	if p != nil {
		opts.Metrics = p.reg
		interval = time.Duration(float64(time.Second) / z.streamRate)
	}
	inc := core.NewIncrementalClusterer(st.fs, opts)
	n := len(st.fs.Records)
	var (
		arrivals, adds, reclusters []time.Duration
		busy, queued, lag          time.Duration
	)
	if p.on() {
		arrivals, adds = make([]time.Duration, 0, n), make([]time.Duration, 0, n)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		waitUntil(due)
		begin := time.Now()
		sp := p.start("incr.add")
		inc.Add(i)
		p.end(sp)
		done := time.Now()
		busy += done.Sub(begin)
		lag = begin.Sub(due)
		queued += lag
		if p.on() {
			arrivals = append(arrivals, done.Sub(due))
			adds = append(adds, done.Sub(begin))
		}
		if (i+1)%z.reclusterN == 0 {
			sp = p.start("incr.recluster")
			inc.Recluster()
			p.end(sp)
			reclusters = append(reclusters, time.Since(done))
		}
	}
	final := inc.Recluster()

	var reclusterBusy time.Duration
	for _, d := range reclusters {
		reclusterBusy += d
	}
	o := outcome{
		wall:      busy + reclusterBusy,
		digest:    clusterDigest(final),
		score:     pairScore(final.Labels, st.truth),
		attempted: n,
	}
	if p.on() {
		stats := inc.Stats()
		o.layers = p.miningLayers(n)
		o.layers["incr.add_p50_us"] = us(percentile(adds, 50))
		o.layers["incr.add_tail_us"] = us(percentile(adds, tailPercentile(len(adds))))
		o.layers["incr.add_busy_s"] = busy.Seconds()
		o.layers["incr.queue_wait_s"] = queued.Seconds()
		o.layers["incr.arrival_p50_ms"] = ms(percentile(arrivals, 50))
		o.layers["incr.arrival_tail_ms"] = ms(percentile(arrivals, tailPercentile(n)))
		o.layers["incr.generator_lag_s"] = lag.Seconds()
		o.layers["incr.recluster_p50_ms"] = ms(percentile(reclusters, 50))
		o.layers["incr.recluster_busy_s"] = reclusterBusy.Seconds()
		if b := stats.BlocksReused + stats.BlocksRebuilt; b > 0 {
			o.layers["incr.blocks_reused_ratio"] = float64(stats.BlocksReused) / float64(b)
		}
		if stats.Added > 0 {
			o.layers["incr.assigned_existing_ratio"] = float64(stats.AssignedToExisting) / float64(stats.Added)
		}
		o.layers["incr.sweep_memo_hits"] = float64(stats.SweepMemoHits)
	}
	return o, nil
}

// verifyStream checks that the stream converged to the batch blocked
// clustering of the same feature set.
func verifyStream(st *state, o outcome) error {
	want := clusterDigest(core.ClusterWPNs(st.fs, core.ClusterOptions{Blocked: true}))
	if o.digest != want {
		return fmt.Errorf("stream labels %s differ from batch blocked clustering %s", o.digest, want)
	}
	return nil
}

// waitUntil blocks until t: it sleeps while t is far off and spins for
// the last stretch, where a timer would overshoot.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(t) {
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
