package crawler_test

// Crawl benchmark suite: the monitor event loop — the phase dominating
// a multi-day collection window — of a one-shard fleet crawl, measured
// at two container-fleet sizes in serial (PumpWorkers=1) and parallel
// (PumpWorkers=MaxContainers) modes. scripts/bench.sh runs these and records BENCH_crawl.json; the
// serial/parallel parity test guarantees the modes agree byte-for-byte
// before the speedup counts.
//
// Run with:
//
//	make bench-crawl

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"pushadminer/internal/browser"
	"pushadminer/internal/chaos"
	"pushadminer/internal/crawler"
	"pushadminer/internal/fleet"
	"pushadminer/internal/webeco"
)

// crawlSizes are the benchmarked fleet sizes with the ecosystem scale
// that yields at least that many registered containers (seed 11,
// desktop): scale 0.01 registers ~66, scale 0.05 ~290.
var crawlSizes = []struct {
	n     int
	scale float64
}{
	{50, 0.01},
	{200, 0.05},
}

// benchLatency models the WAN round-trip the paper's crawler was bound
// by: every request pays a fixed real-time delay at the vnet choke
// point (the simulated clock does not advance). The in-process vnet is
// otherwise latency-free, which would hide exactly the I/O overlap the
// parallel monitor exists to exploit — the paper ran 20–50 concurrent
// sessions because collection is I/O-bound, not CPU-bound. Latency
// draws are deterministic per request identity, so serial and parallel
// runs stay byte-identical.
func benchLatency() *chaos.Profile {
	return &chaos.Profile{
		Seed:            11,
		LatencyFraction: 1,
		LatencyMin:      time.Millisecond,
		LatencyMax:      time.Millisecond,
	}
}

var benchRecords int

// startTimerOnTick starts the benchmark timer at the first scheduler
// tick, so the seeding phase before it stays untimed. The coordinator
// ticks the driver on the goroutine that called fleet.Run.
type startTimerOnTick struct {
	crawler.PushDriver
	b       *testing.B
	started bool
}

func (d *startTimerOnTick) Tick() int {
	if !d.started {
		d.started = true
		d.b.StartTimer()
	}
	return d.PushDriver.Tick()
}

// benchMonitor times only the monitor phase over exactly n containers:
// the shortest seed prefix that registers n containers is found once,
// then each iteration rebuilds the ecosystem and runs a one-shard fleet
// crawl over that prefix with the timer running from the first
// scheduler tick to the end of the crawl.
func benchMonitor(b *testing.B, n int, scale float64, workers int) {
	b.ReportAllocs()
	flushW := workers
	if flushW == 0 {
		flushW = 32 // mirror the crawler's MaxContainers default
	}
	newEco := func() *webeco.Ecosystem {
		eco, err := webeco.New(webeco.Config{Seed: 11, Scale: scale, Chaos: benchLatency(), FlushWorkers: flushW})
		if err != nil {
			b.Fatal(err)
		}
		return eco
	}
	config := func(eco *webeco.Ecosystem, driver crawler.PushDriver) crawler.Config {
		return crawler.Config{
			Clock:            eco.Clock,
			NewClient:        func() *http.Client { return eco.Net.ClientNoRedirect() },
			Driver:           driver,
			Pending:          eco.Push,
			Device:           browser.Desktop,
			CollectionWindow: 7 * 24 * time.Hour,
			PumpWorkers:      workers,
			BatchWindow:      time.Hour,
		}
	}

	b.StopTimer()
	eco := newEco()
	seeds := eco.SeedURLs()
	shardSeeds := make([]crawler.ShardSeed, len(seeds))
	for i, u := range seeds {
		shardSeeds[i] = crawler.ShardSeed{Index: i, URL: u}
	}
	w, err := crawler.NewShardWorker(context.Background(), config(eco, eco), 0, shardSeeds)
	if err != nil {
		b.Fatal(err)
	}
	seeded, err := w.Seed()
	if err != nil {
		b.Fatal(err)
	}
	eco.Close()
	prefix := 0
	for registered := 0; prefix < len(seeded.Outcomes) && registered < n; prefix++ {
		if seeded.Outcomes[prefix].Registered {
			registered++
		}
	}
	seeds = seeds[:prefix]

	for i := 0; i < b.N; i++ {
		eco := newEco()
		res, _, err := fleet.Run(context.Background(), fleet.Config{
			Crawl: config(eco, &startTimerOnTick{PushDriver: eco, b: b}),
		}, seeds)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if res.Containers != n {
			b.Fatalf("scale %v: %d seeds registered %d containers, need %d", scale, len(seeds), res.Containers, n)
		}
		benchRecords += len(res.Records)
		eco.Close()
	}
}

// BenchmarkCrawlMonitor measures the monitor event loop at 50 and 200
// containers. The acceptance bar: parallel at n=200 must beat serial
// ≥2× (BENCH_crawl.json records the ratio).
func BenchmarkCrawlMonitor(b *testing.B) {
	for _, size := range crawlSizes {
		b.Run(fmt.Sprintf("n=%d", size.n), func(b *testing.B) {
			b.Run("serial", func(b *testing.B) { benchMonitor(b, size.n, size.scale, 1) })
			b.Run("parallel", func(b *testing.B) { benchMonitor(b, size.n, size.scale, 0) })
		})
	}
}
