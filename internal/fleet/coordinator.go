package fleet

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
)

// coordinator runs the crawl's monitor event loop across shard
// workers. Per tick, in order: advance the shared clock to the next
// global event (earliest scheduled push or container resume across
// all shards), sweep heartbeats (kills, restarts, and work stealing all
// happen here, before any worker touches the tick), flush the push
// scheduler, poll every live shard in parallel, dispatch + advance the
// clock once if any shard received messages, click everywhere, then
// merge the shards' tick items serially in container-id order, minting
// record IDs. Only the per-shard fan-outs are concurrent; everything
// that orders the output is serial — which is what extends the
// PumpWorkers byte-parity discipline across shard boundaries.
//
// The coordinator also appends every control-plane lifecycle event to
// the run's ledger and publishes a live FleetStatus for /fleetz, both on
// its serial path, so the ledger is deterministic under a fixed chaos
// plan. The workers count and trace into the crawl's registry and
// tracer themselves.
type coordinator struct {
	ctx    context.Context
	cfg    Config
	crawl  crawler.Config
	shards *shardSet
	met    *fleetMetrics

	// Coordinator-owned crawl instruments: the global batch-size
	// histogram, record counter, and pump-worker gauge.
	batchSize   *telemetry.Histogram
	records     *telemetry.Counter
	pumpWorkers *telemetry.Gauge

	res    *crawler.Result
	report *Report

	n         int
	alive     []bool
	status    []crawler.TickStatus
	lastCycle []int
	restarts  []int
	owned     []int

	nextID int
	epoch  time.Time
	end    time.Time

	// events counts the lifecycle events emitted; pub publishes the
	// /fleetz view (nil without a registry), with health[k] the live
	// worker k's health as read at its last heartbeat cycle.
	events int
	pub    *telemetry.Publisher[FleetStatus]
	health []*crawler.ShardHealth
}

func newCoordinator(ctx context.Context, cfg Config, crawlCfg crawler.Config, shards *shardSet, met *fleetMetrics) *coordinator {
	n := cfg.Shards
	co := &coordinator{
		ctx:       ctx,
		cfg:       cfg,
		crawl:     crawlCfg,
		shards:    shards,
		met:       met,
		res:       &crawler.Result{},
		report:    &Report{Shards: n, Workers: make([]WorkerStatus, n)},
		n:         n,
		alive:     make([]bool, n),
		status:    make([]crawler.TickStatus, n),
		lastCycle: make([]int, n),
		restarts:  make([]int, n),
		owned:     make([]int, n),
		health:    make([]*crawler.ShardHealth, n),
	}
	for k := 0; k < n; k++ {
		co.alive[k] = true
		co.lastCycle[k] = -1
		co.report.Workers[k].Shard = k
	}
	if reg := crawlCfg.Metrics; reg != nil {
		co.batchSize = reg.Histogram("crawler_pump_batch_size", telemetry.SizeBuckets)
		co.records = reg.Counter("crawler_records_emitted")
		co.pumpWorkers = reg.Gauge("crawler_pump_workers")
		co.pub = telemetry.NewPublisher[FleetStatus]("fleet")
	}
	return co
}

// event counts one lifecycle event, mirrors it into the fleet_events
// metric family, and appends it to the ledger, if one is attached,
// with attrs from the kv pairs plus the device and (shard >= 0) the
// shard. Called only on the coordinator's serial path, so ledger order
// is causal order and deterministic under a fixed chaos plan.
func (co *coordinator) event(kind string, shard int, kv ...string) {
	co.events++
	co.met.events.Add(kind, 1)
	if co.cfg.Ledger == nil {
		return
	}
	attrs := map[string]string{"device": co.crawl.Device.String()}
	if shard >= 0 {
		attrs["shard"] = strconv.Itoa(shard)
	}
	for i := 0; i+1 < len(kv); i += 2 {
		attrs[kv[i]] = kv[i+1]
	}
	co.cfg.Ledger.Append(telemetry.Event{Time: co.crawl.Clock.Now(), Kind: kind, Attrs: attrs})
}

// updateStatus rebuilds and publishes the /fleetz view. Fresh maps and
// slices every time: the published pointer is read concurrently by the
// debug server and must never be mutated afterwards.
func (co *coordinator) updateStatus(done bool) {
	if co.pub == nil {
		return
	}
	st := &FleetStatus{
		Device:     co.crawl.Device.String(),
		Shards:     co.n,
		Heartbeats: co.report.Heartbeats,
		Kills:      co.report.Kills,
		Restarts:   co.report.Restarts,
		Lost:       co.report.WorkersLost,
		Stolen:     co.report.ContainersStolen,
		Records:    len(co.res.Records),
		Events:     co.events,
		SimTime:    co.crawl.Clock.Now(),
		WindowEnd:  co.end,
		Done:       done,
	}
	for k := 0; k < co.n; k++ {
		ws := ShardStatus{
			Shard:         k,
			Alive:         co.alive[k],
			Containers:    co.owned[k],
			Queued:        co.status[k].Queued,
			Restarts:      co.restarts[k],
			RestartBudget: max(0, co.cfg.MaxRestarts-co.restarts[k]),
			Adopted:       co.report.Workers[k].Adopted,
			Lost:          co.report.Workers[k].Lost,
		}
		if co.alive[k] {
			st.LiveShards++
		}
		if h := co.health[k]; h != nil && co.alive[k] {
			ws.Containers = h.Containers
			ws.Collected = h.Collected
			ws.Dead = h.Dead
			if len(h.Breakers) > 0 {
				ws.Breakers = make(map[string]int, len(h.Breakers))
				for s, n := range h.Breakers {
					ws.Breakers[s] = n
				}
			}
		}
		st.Workers = append(st.Workers, ws)
	}
	co.pub.Publish(st)
}

// forAlive runs f(k) concurrently for every live shard and joins the
// errors. Each call owns its shard's slot; cross-shard state is only
// touched on the coordinator's serial path.
func (co *coordinator) forAlive(f func(k int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, co.n)
	for k := 0; k < co.n; k++ {
		if !co.alive[k] {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = f(k)
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// run drives the whole fleet crawl: seed, monitor loop, final drain,
// finish.
func (co *coordinator) run(seeds []string) error {
	clock := co.crawl.Clock
	co.met.shards.Set(int64(co.n))
	co.met.liveShards.Set(int64(co.n))
	co.pumpWorkers.Set(int64(co.crawl.PumpWorkers))

	// Seeding: all shards visit their seed subsets concurrently (the
	// global parallelism is Shards × MaxContainers, like running the
	// paper's Docker sessions on several hosts). Visits do not advance
	// the simulated clock, so the fan-out cannot reorder time. Seeding
	// is kill-free: heartbeat cycle 0 is consulted at the first tick.
	reps := make([]*crawler.ShardSeedReport, co.n)
	if err := co.forAlive(func(k int) error {
		rep, err := co.shards.Seed(k)
		reps[k] = rep
		return err
	}); err != nil {
		return err
	}

	co.res.SeedURLs = seeds
	var outcomes []crawler.ShardSeedOutcome
	for k := 0; k < co.n; k++ {
		outcomes = append(outcomes, reps[k].Outcomes...)
		co.status[k] = reps[k].Status
		co.owned[k] = reps[k].Status.Queued
		co.event(EvShardStarted, k, "containers", strconv.Itoa(reps[k].Status.Queued))
	}
	// Global seed order, not shard order: NPRURLs must list seed URLs
	// in one order at every shard count.
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Index < outcomes[j].Index })
	for _, oc := range outcomes {
		if oc.Requested {
			co.res.NPRURLs = append(co.res.NPRURLs, seeds[oc.Index])
		}
		if oc.Registered {
			co.res.Containers++
		}
	}
	// Containers minted ids 1..len(seeds); record IDs continue after.
	co.nextID = len(seeds)
	co.epoch = clock.Now()
	co.end = co.epoch.Add(co.crawl.CollectionWindow)

	cancelled := false
	for {
		if co.ctx.Err() != nil {
			cancelled = true
			break
		}
		now := clock.Now()
		if !now.Before(co.end) {
			break
		}
		// Next global event: a scheduled push or any shard's earliest
		// container resume.
		next := co.end
		if at, ok := co.crawl.Driver.NextPushAt(); ok && at.Before(next) {
			next = at
		}
		for k := 0; k < co.n; k++ {
			if co.alive[k] && co.status[k].HasResume && co.status[k].NextResume.Before(next) {
				next = co.status[k].NextResume
			}
		}
		// Tick coalescing: step past the first due event by the batch
		// window so everything due inside it is pumped as one batch.
		if w := co.crawl.BatchWindow; w > 0 && next.Before(co.end) {
			if q := next.Add(w); q.Before(co.end) {
				next = q
			} else {
				next = co.end
			}
		}
		if next.After(now) {
			clock.Advance(next.Sub(now))
			now = next
		}

		// Control plane first: kills, restarts, and stealing all land
		// before any worker polls, so the tick always runs against a
		// settled fleet.
		if err := co.heartbeatSweep(now); err != nil {
			return err
		}

		co.crawl.Driver.Tick()

		if err := co.pump(now, false); err != nil {
			return err
		}

		// Safety: if nothing is scheduled and no resumes remain, stop.
		if _, ok := co.crawl.Driver.NextPushAt(); !ok && co.totalQueued() == 0 {
			break
		}
	}

	// Final drain at the end of the window, skipped on cancellation so
	// a cancelled run's records stay a prefix of the uninterrupted
	// run's.
	if !cancelled {
		if err := co.pump(clock.Now(), true); err != nil {
			return err
		}
	}

	return co.finish()
}

// pump runs one global tick's poll/dispatch/click phases across all
// live shards and merges the results. final selects the end-of-window
// drain batches.
func (co *coordinator) pump(now time.Time, final bool) error {
	polls := make([]*crawler.TickPoll, co.n)
	if err := co.forAlive(func(k int) error {
		p, err := co.shards.Poll(k, now, final)
		polls[k] = p
		return err
	}); err != nil {
		return err
	}
	any, total := false, 0
	for k := 0; k < co.n; k++ {
		if polls[k] == nil {
			continue
		}
		co.status[k] = polls[k].Status
		total += polls[k].Due
		any = any || polls[k].Any
	}
	if total > 0 {
		co.batchSize.Observe(float64(total))
	}
	if any {
		if err := co.forAlive(co.shards.Dispatch); err != nil {
			return err
		}
		// One ClickDelay advance for the whole fleet-wide batch (pump
		// phase 3).
		co.crawl.Clock.Advance(co.crawl.ClickDelay)
	}

	results := make([]*crawler.TickResult, co.n)
	if err := co.forAlive(func(k int) error {
		res, err := co.shards.Click(k)
		results[k] = res
		return err
	}); err != nil {
		return err
	}

	// Serial merge in ascending container id — the cross-shard half of
	// pump phase 5. Container ids are global (seed index + 1) and each
	// container lives on exactly one shard, so this ordering, and the
	// ID sequence minted here, is the same at every shard count.
	var items []crawler.TickItem
	for k := 0; k < co.n; k++ {
		if results[k] != nil {
			items = append(items, results[k].Items...)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].ContainerID < items[j].ContainerID })
	minted := 0
	for _, it := range items {
		for _, rec := range it.Records {
			co.nextID++
			rec.ID = co.nextID
			co.res.Records = append(co.res.Records, rec)
			co.records.Inc()
			minted++
		}
		co.res.AdditionalURLs = append(co.res.AdditionalURLs, it.AdditionalURLs...)
	}
	if minted > 0 {
		co.event(EvMerge, -1, "records", strconv.Itoa(minted), "items", strconv.Itoa(len(items)))
	}
	co.updateStatus(false)
	return nil
}

// heartbeatSweep checks every live worker for each heartbeat cycle that
// elapsed since its last check. Worker deaths are detected here — and
// only here, at tick boundaries, after the previous tick's state save —
// and handled immediately: bounded restart-with-resume, then work
// stealing once the budget is spent. With a registry attached, each
// live worker's health is read once per new cycle for /fleetz, on the
// serial path while no worker runs.
func (co *coordinator) heartbeatSweep(now time.Time) error {
	cycle := int(now.Sub(co.epoch) / co.cfg.Heartbeat)
	for k := 0; k < co.n; k++ {
		if !co.alive[k] {
			continue
		}
		for c := co.lastCycle[k] + 1; c <= cycle; c++ {
			co.report.Heartbeats++
			err := co.shards.Heartbeat(k, c)
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrWorkerDown) {
				return err
			}
			co.event(EvHeartbeatMissed, k, "cycle", strconv.Itoa(c))
			if herr := co.handleDown(k); herr != nil {
				return herr
			}
			if !co.alive[k] {
				break // lost for good; containers already adopted
			}
		}
		if co.pub != nil && co.alive[k] && cycle > co.lastCycle[k] {
			co.health[k] = co.shards.Health(k)
		}
		co.lastCycle[k] = cycle
	}
	co.updateStatus(false)
	return nil
}

// handleDown reacts to a dead worker: restart it from its last saved
// shard state while its budget lasts, otherwise hand its orphaned
// containers to the least-loaded live worker. The last live worker —
// every worker of a one-shard crawl — has no one to hand them to, so it
// is restarted whatever its budget. Either way the containers resume
// exactly where the last tick-boundary save left them, so the kill is
// invisible in the merged output.
func (co *coordinator) handleDown(k int) error {
	co.report.Kills++
	co.met.kills.Inc()
	co.event(EvKillDetected, k)

	live := 0
	for j := 0; j < co.n; j++ {
		if co.alive[j] {
			live++
		}
	}
	if co.restarts[k] < co.cfg.MaxRestarts || live == 1 {
		co.restarts[k]++
		fellBack, err := co.shards.Restart(k)
		if fellBack {
			co.report.StateFallbacks++
			co.met.stateFallbacks.Inc()
		}
		if err != nil {
			return err
		}
		co.report.Restarts++
		co.report.Workers[k].Restarts++
		co.met.restarts.Inc()
		if fellBack {
			co.event(EvRestart, k, "fellback", "true")
		} else {
			co.event(EvRestart, k)
		}
		// The restored worker's scheduling state equals the saved one,
		// which is what co.status[k] already holds.
		return nil
	}

	// Budget exhausted: the worker stays dead.
	co.alive[k] = false
	co.report.WorkersLost++
	co.report.Workers[k].Lost = true
	co.met.workersLost.Inc()
	co.met.liveShards.Add(-1)
	co.event(EvWorkerLost, k)

	st, fellBack, err := co.shards.Orphans(k)
	if fellBack {
		co.report.StateFallbacks++
		co.met.stateFallbacks.Inc()
	}
	if err != nil {
		return err
	}
	co.event(EvOrphanSteal, k, "containers", strconv.Itoa(len(st.Containers)))
	// Steal to the live worker owning the fewest containers (ties to
	// the lowest shard id); there is one, since the last live worker is
	// always restarted. The choice is pure load balancing: records merge
	// by global container id and every draw is keyed by container or
	// worker identity, so the adopter's identity cannot leak into the
	// output.
	target := -1
	for j := 0; j < co.n; j++ {
		if co.alive[j] && (target < 0 || co.owned[j] < co.owned[target]) {
			target = j
		}
	}
	if err := co.shards.Adopt(target, st); err != nil {
		return err
	}
	stolen := len(st.Containers)
	co.report.ContainersStolen += stolen
	co.report.Workers[target].Adopted += stolen
	co.met.containersStolen.Add(int64(stolen))
	co.owned[target] += stolen
	co.owned[k] = 0
	co.event(EvAdopt, target, "from", strconv.Itoa(k), "containers", strconv.Itoa(stolen))
	// The dead shard's pending resumes now live in the adopter's heap;
	// the adopter's status refreshes at this tick's poll.
	co.status[k] = crawler.TickStatus{}
	return nil
}

func (co *coordinator) totalQueued() int {
	total := 0
	for k := 0; k < co.n; k++ {
		if co.alive[k] {
			total += co.status[k].Queued
		}
	}
	return total
}

// finish aggregates the shards' final accounting — per-shard
// Degradations merge tally-wise into one report, the same at every
// shard count — snapshots the ecosystem fault counters once, and
// publishes the final /fleetz view with fresh health lines.
func (co *coordinator) finish() error {
	for k := 0; k < co.n; k++ {
		if !co.alive[k] {
			continue
		}
		if co.pub != nil {
			co.health[k] = co.shards.Health(k)
		}
		fin, err := co.shards.Finish(k)
		if err != nil {
			return err
		}
		co.res.Degradation.Merge(fin.Degradation)
	}
	if co.crawl.FaultCounts != nil {
		if fc := co.crawl.FaultCounts(); len(fc) > 0 {
			co.res.Degradation.Faults = fc
		}
	}
	co.updateStatus(true)
	return nil
}
