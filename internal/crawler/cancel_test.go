package crawler_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pushadminer/internal/crawler"
)

func TestRunContextCancelled(t *testing.T) {
	eco := newEco(t, 0.002)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before it even starts
	res, err := crawlContext(t, ctx, eco, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
	if len(res.Records) != 0 {
		t.Errorf("cancelled-before-start crawl produced %d records", len(res.Records))
	}
}

// tickCancelDriver cancels a context after a fixed number of scheduler
// ticks — a deterministic "kill -9" point inside the monitor loop.
type tickCancelDriver struct {
	crawler.PushDriver
	n, limit int
	cancel   context.CancelFunc
}

func (d *tickCancelDriver) Tick() int {
	d.n++
	if d.limit > 0 && d.n == d.limit {
		d.cancel()
	}
	return d.PushDriver.Tick()
}

// TestRunContextCancelledMidMonitor kills the crawl from inside the
// monitor loop (after a fixed number of scheduler ticks) and checks the
// crawl returns a coherent partial result: some but not all records,
// the context error, and no duplicates.
func TestRunContextCancelledMidMonitor(t *testing.T) {
	// Reference run to know the full record count and tick budget.
	ecoA := newEco(t, 0.002)
	counter := &tickCancelDriver{PushDriver: ecoA}
	full := crawl(t, ecoA, func(c *crawler.Config) { c.Driver = counter })
	if len(full.Records) == 0 || counter.n < 4 {
		t.Fatalf("reference run too small (records=%d ticks=%d)", len(full.Records), counter.n)
	}

	ecoB := newEco(t, 0.002)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &tickCancelDriver{PushDriver: ecoB, limit: counter.n / 2, cancel: cancel}
	partial, err := crawlContext(t, ctx, ecoB, func(c *crawler.Config) { c.Driver = killer })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("partial result missing")
	}
	if len(partial.Records) == 0 {
		t.Error("mid-monitor cancel returned no records despite collecting before the kill")
	}
	if len(partial.Records) >= len(full.Records) {
		t.Errorf("cancel fired too late: partial=%d full=%d", len(partial.Records), len(full.Records))
	}
	// A cancelled crawl skips the final drain, so nothing collected
	// before the kill may be emitted twice.
	assertUniqueIDs(t, partial.Records)
	seen := make(map[string]bool, len(partial.Records))
	for _, r := range partial.Records {
		k := strings.Join([]string{r.SourceURL, r.SWURL, r.Title, r.Body, r.TargetURL,
			r.ShownAt.UTC().Format(time.RFC3339Nano)}, "\x1f")
		if seen[k] {
			t.Errorf("duplicate record after cancel: %s %q", r.SourceURL, r.Title)
		}
		seen[k] = true
	}
}

func TestRunContextBackgroundCompletes(t *testing.T) {
	eco := newEco(t, 0.002)
	res, err := crawlContext(t, context.Background(), eco, func(c *crawler.Config) {
		c.CollectionWindow = 2 * 24 * time.Hour
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Error("no records collected")
	}
}
