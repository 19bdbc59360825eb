// Package fleet drives every WPN crawl: one crawler.ShardWorker under
// the monitor event loop on the shared simulated clock. Per tick, in
// order: advance the clock to the next event (the earliest scheduled
// push or container resume, stepped past by the batch window), flush
// the push scheduler, poll the due containers, dispatch and advance
// the clock once if any poll returned messages, click, then merge the
// tick's records in container-id order, minting record IDs. The
// worker fans each phase out over its pump pool; everything that
// orders the output runs serially here, so a crawl is a deterministic
// function of its seeds and chaos plan.
//
// Container crashes are the worker's business (detected and re-seeded
// inside the crawl). A crawl killed as a whole keeps no state: it is
// simply run again, and the rerun writes what an uninterrupted run
// would have. The parity test pins Run against a reference loop that
// drives the same worker directly.
//
// Run also appends the crawl's lifecycle events to an attached ledger
// and publishes a live FleetStatus for /fleetz, both on its serial
// path.
package fleet

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
)

// Config configures a crawl.
type Config struct {
	// Crawl is the crawl configuration the worker and the event loop
	// share.
	Crawl crawler.Config
	// Ledger, if non-nil, receives the crawl's lifecycle events,
	// stamped with the simulated clock and attributed by "device". Two
	// identical runs append identical events.
	Ledger *telemetry.Ledger
}

// Crawl event kinds.
const (
	EvShardStarted = "shard_started" // seeding done, container count settled
	EvMerge        = "merge"         // a tick's records merged (records > 0)
)

// FleetStatus is the live introspection snapshot served at /fleetz:
// built on the crawl's serial path from the worker's health when the
// crawl starts, after every tick and at the end, published atomically,
// and rendered as JSON or (via String) a one-screen text dashboard.
type FleetStatus struct {
	Device     string `json:"device"`
	Containers int    `json:"containers"`
	Dead       int    `json:"dead_containers"`
	Queued     int    `json:"queued"`
	Collected  int    `json:"collected"`
	// Breakers counts the containers' host circuits by state ("open"
	// spiking is the first symptom of a push-service outage).
	Breakers  map[string]int `json:"breakers,omitempty"`
	Records   int            `json:"records"`
	Events    int            `json:"events"`
	SimTime   time.Time      `json:"sim_time"`
	WindowEnd time.Time      `json:"window_end"`
	Done      bool           `json:"done"`
}

// String renders the status as the one-screen dashboard wpnstat shows.
func (s FleetStatus) String() string {
	var b strings.Builder
	state := "running"
	if s.Done {
		state = "done"
	}
	fmt.Fprintf(&b, "fleet %-7s  %s  sim %s / end %s\n", s.Device, state,
		s.SimTime.Format("2006-01-02 15:04"), s.WindowEnd.Format("2006-01-02 15:04"))
	fmt.Fprintf(&b, "containers %-5d dead %-4d queued %-5d collected %-6d records %-6d events %d\n",
		s.Containers, s.Dead, s.Queued, s.Collected, s.Records, s.Events)
	b.WriteString("breakers")
	for _, st := range []string{"closed", "half-open", "open"} {
		fmt.Fprintf(&b, " %s:%d", st, s.Breakers[st])
	}
	b.WriteByte('\n')
	return b.String()
}

// Run crawls the seed URLs with one worker and returns its result.
// Cancelling ctx stops the crawl at the next tick boundary (no final
// drain) and returns the records collected so far with ctx.Err(); they
// are a prefix of an uninterrupted run's records, so a killed crawl is
// simply run again.
func Run(ctx context.Context, cfg Config, seeds []string) (*crawler.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := cfg.Crawl.WithDefaults()
	shardSeeds := make([]crawler.ShardSeed, len(seeds))
	for i, u := range seeds {
		shardSeeds[i] = crawler.ShardSeed{Index: i, URL: u}
	}
	w, err := crawler.NewShardWorker(ctx, c, 0, shardSeeds)
	if err != nil {
		return nil, err
	}
	r := &run{ctx: ctx, cfg: c, ledger: cfg.Ledger, w: w, res: &crawler.Result{SeedURLs: seeds}}
	if reg := c.Metrics; reg != nil {
		r.batchSize = reg.Histogram("crawler_pump_batch_size", telemetry.SizeBuckets)
		r.records = reg.Counter("crawler_records_emitted")
		r.events = reg.Family("fleet_events", "kind")
		reg.Gauge("crawler_pump_workers").Set(int64(c.PumpWorkers))
		r.pub = telemetry.NewPublisher[FleetStatus]("fleet")
		// Publish at once: registering replaces the previous crawl's
		// status (desktop, then mobile), and the first merge comes only
		// after seeding, so until then /fleetz would answer that no run
		// is active in the middle of a crawl.
		r.publish(false)
	}
	if err := r.crawl(); err != nil {
		return r.res, err
	}
	return r.res, ctx.Err()
}

// run is one crawl's event-loop state.
type run struct {
	ctx    context.Context
	cfg    crawler.Config
	ledger *telemetry.Ledger
	w      *crawler.ShardWorker
	res    *crawler.Result

	status crawler.TickStatus
	nextID int
	end    time.Time

	// Crawl-wide instruments, all nil without a registry; pub publishes
	// the /fleetz view and nEvents counts the lifecycle events.
	batchSize *telemetry.Histogram
	records   *telemetry.Counter
	events    *telemetry.Family
	pub       *telemetry.Publisher[FleetStatus]
	nEvents   int
}

// event counts one lifecycle event, mirrors it into the fleet_events
// family, and appends it to the ledger, if one is attached, with the
// device and the kv pairs as attrs.
func (r *run) event(kind string, kv ...string) {
	r.nEvents++
	r.events.Add(kind, 1)
	if r.ledger == nil {
		return
	}
	attrs := map[string]string{"device": r.cfg.Device.String()}
	for i := 0; i+1 < len(kv); i += 2 {
		attrs[kv[i]] = kv[i+1]
	}
	r.ledger.Append(telemetry.Event{Time: r.cfg.Clock.Now(), Kind: kind, Attrs: attrs})
}

// publish builds and publishes the /fleetz view from the worker's
// health, read while no phase runs. Health returns fresh maps, so the
// published pointer is never mutated afterwards.
func (r *run) publish(done bool) {
	if r.pub == nil {
		return
	}
	h := r.w.Health()
	r.pub.Publish(&FleetStatus{
		Device:     r.cfg.Device.String(),
		Containers: h.Containers,
		Dead:       h.Dead,
		Queued:     h.Queued,
		Collected:  h.Collected,
		Breakers:   h.Breakers,
		Records:    len(r.res.Records),
		Events:     r.nEvents,
		SimTime:    r.cfg.Clock.Now(),
		WindowEnd:  r.end,
		Done:       done,
	})
}

// crawl seeds the worker, runs the monitor loop and the final drain,
// and folds in the worker's final accounting.
func (r *run) crawl() error {
	clock := r.cfg.Clock
	seeded, err := r.w.Seed()
	if err != nil {
		return err
	}
	for _, oc := range seeded.Outcomes {
		if oc.Requested {
			r.res.NPRURLs = append(r.res.NPRURLs, r.res.SeedURLs[oc.Index])
		}
		if oc.Registered {
			r.res.Containers++
		}
	}
	r.status = seeded.Status
	// The ledger's shard attr predates the one-worker crawl; it stays so
	// that ledgers keep their bytes.
	r.event(EvShardStarted, "shard", "0", "containers", strconv.Itoa(r.status.Queued))
	// Containers hold ids 1..len(seeds); record IDs continue after.
	r.nextID = len(r.res.SeedURLs)
	r.end = clock.Now().Add(r.cfg.CollectionWindow)

	cancelled := false
	for {
		if r.ctx.Err() != nil {
			cancelled = true
			break
		}
		now := clock.Now()
		if !now.Before(r.end) {
			break
		}
		next := r.end
		if at, ok := r.cfg.Driver.NextPushAt(); ok && at.Before(next) {
			next = at
		}
		if r.status.HasResume && r.status.NextResume.Before(next) {
			next = r.status.NextResume
		}
		// Tick coalescing: step past the first due event by the batch
		// window so everything due inside it is pumped as one batch.
		if win := r.cfg.BatchWindow; win > 0 && next.Before(r.end) {
			if q := next.Add(win); q.Before(r.end) {
				next = q
			} else {
				next = r.end
			}
		}
		if next.After(now) {
			clock.Advance(next.Sub(now))
			now = next
		}
		r.cfg.Driver.Tick()
		if err := r.pump(now, false); err != nil {
			return err
		}
		// Nothing scheduled and no resumes left: stop early.
		if _, ok := r.cfg.Driver.NextPushAt(); !ok && r.status.Queued == 0 {
			break
		}
	}
	// Final drain at the end of the window, skipped on cancellation so
	// a cancelled run's records stay a prefix of the uninterrupted
	// run's.
	if !cancelled {
		if err := r.pump(clock.Now(), true); err != nil {
			return err
		}
	}

	fin, err := r.w.Finish()
	if err != nil {
		return err
	}
	r.res.Degradation.Merge(fin.Degradation)
	if r.cfg.FaultCounts != nil {
		if fc := r.cfg.FaultCounts(); len(fc) > 0 {
			r.res.Degradation.Faults = fc
		}
	}
	r.publish(true)
	return nil
}

// pump runs one tick's poll, dispatch and click phases and merges the
// tick's records in container-id order, minting their IDs. final
// selects the end-of-window drain batch.
func (r *run) pump(now time.Time, final bool) error {
	poll, err := r.w.Poll(now, final)
	if err != nil {
		return err
	}
	r.status = poll.Status
	if poll.Due > 0 {
		r.batchSize.Observe(float64(poll.Due))
	}
	if poll.Any {
		if err := r.w.Dispatch(); err != nil {
			return err
		}
		r.cfg.Clock.Advance(r.cfg.ClickDelay)
	}
	tick, err := r.w.Click()
	if err != nil {
		return err
	}
	minted := 0
	for _, it := range tick.Items {
		for _, rec := range it.Records {
			r.nextID++
			rec.ID = r.nextID
			r.res.Records = append(r.res.Records, rec)
			r.records.Inc()
			minted++
		}
		r.res.AdditionalURLs = append(r.res.AdditionalURLs, it.AdditionalURLs...)
	}
	if minted > 0 {
		r.event(EvMerge, "records", strconv.Itoa(minted), "items", strconv.Itoa(len(tick.Items)))
	}
	r.publish(false)
	return nil
}
