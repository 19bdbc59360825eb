package crawler

import "testing"

// TestFinalDrainRespectsCap pins the satellite bugfix: the end-of-window
// drain must honour MaxNotificationsPerContainer like every other pump
// site instead of pumping capped containers one last time.
func TestFinalDrainRespectsCap(t *testing.T) {
	under := &container{id: 3, collected: 1}
	at := &container{id: 1, collected: 2}
	over := &container{id: 2, collected: 5}
	dead := &container{id: 4, collected: 0, dead: true}
	w := &ShardWorker{
		cfg:  Config{MaxNotificationsPerContainer: 2},
		live: []*container{under, at, over, dead},
	}
	batch := w.finalBatch()
	if len(batch) != 1 || batch[0].ct != under {
		ids := make([]int, len(batch))
		for i, it := range batch {
			ids[i] = it.ct.id
		}
		t.Fatalf("finalBatch drained containers %v, want only id 3 (under cap, alive)", ids)
	}
}

// TestDisabledCrawlMetricsZeroAlloc guards the telemetry-off hot path:
// the zero-value crawlMetrics (what every worker gets when
// Config.Metrics is nil) must make all instrument calls on the pump and
// visit paths free — no allocations, just nil-receiver no-ops. The
// distance-matrix hot loop has the same property by construction: with
// metrics disabled ClusterWPNs never wraps the keep function at all.
func TestDisabledCrawlMetricsZeroAlloc(t *testing.T) {
	var tel crawlMetrics
	if tel.enabled {
		t.Fatal("zero-value crawlMetrics reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tel.visits.Inc()
		tel.visitRetries.Inc()
		tel.pollFailures.Inc()
		tel.breakerFastFails.Inc()
		tel.visitsAborted.Inc()
		tel.containersLost.Inc()
		tel.pumpLatency.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled crawl metrics allocate %v per pump-path round, want 0", allocs)
	}
}
