package fleet

import (
	"context"
	"testing"
	"time"

	"pushadminer/internal/crawler"
)

// referenceCrawl is the fleet's independent oracle: one ShardWorker
// driven directly through Seed, a Poll / Dispatch / Click loop and
// Finish, with no coordinator, transport, heartbeats, durable state or
// telemetry pulls — the same loop bench/study.go's tracedCrawl runs.
// Every fleet parity test compares fleet.Run against it.
func referenceCrawl(t *testing.T, cfg crawler.Config, seeds []string) *crawler.Result {
	t.Helper()
	cfg = cfg.WithDefaults()
	shardSeeds := make([]crawler.ShardSeed, len(seeds))
	for i, u := range seeds {
		shardSeeds[i] = crawler.ShardSeed{Index: i, URL: u}
	}
	w, err := crawler.NewShardWorker(context.Background(), cfg, 0, shardSeeds)
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := w.Seed()
	if err != nil {
		t.Fatal(err)
	}
	res := &crawler.Result{SeedURLs: seeds}
	for _, oc := range seeded.Outcomes {
		if oc.Requested {
			res.NPRURLs = append(res.NPRURLs, seeds[oc.Index])
		}
		if oc.Registered {
			res.Containers++
		}
	}
	// Containers hold ids 1..len(seeds); record ids continue after.
	nextID := len(seeds)
	status := seeded.Status

	pump := func(now time.Time, final bool) {
		poll, err := w.Poll(now, final)
		if err != nil {
			t.Fatal(err)
		}
		status = poll.Status
		if poll.Any {
			if err := w.Dispatch(); err != nil {
				t.Fatal(err)
			}
			cfg.Clock.Advance(cfg.ClickDelay)
		}
		tick, err := w.Click()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range tick.Items {
			for _, rec := range it.Records {
				nextID++
				rec.ID = nextID
				res.Records = append(res.Records, rec)
			}
			res.AdditionalURLs = append(res.AdditionalURLs, it.AdditionalURLs...)
		}
	}

	end := cfg.Clock.Now().Add(cfg.CollectionWindow)
	for {
		now := cfg.Clock.Now()
		if !now.Before(end) {
			break
		}
		next := end
		if at, ok := cfg.Driver.NextPushAt(); ok && at.Before(next) {
			next = at
		}
		if status.HasResume && status.NextResume.Before(next) {
			next = status.NextResume
		}
		if win := cfg.BatchWindow; win > 0 && next.Before(end) {
			if q := next.Add(win); q.Before(end) {
				next = q
			} else {
				next = end
			}
		}
		if next.After(now) {
			cfg.Clock.Advance(next.Sub(now))
			now = next
		}
		cfg.Driver.Tick()
		pump(now, false)
		if _, ok := cfg.Driver.NextPushAt(); !ok && status.Queued == 0 {
			break
		}
	}
	pump(cfg.Clock.Now(), true)

	fin, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res.Degradation.Merge(fin.Degradation)
	if cfg.FaultCounts != nil {
		if fc := cfg.FaultCounts(); len(fc) > 0 {
			res.Degradation.Faults = fc
		}
	}
	return res
}
