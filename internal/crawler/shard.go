package crawler

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"
)

// This file implements the crawl's worker (internal/fleet drives it).
// A ShardWorker owns the crawl's containers — their browsers,
// per-container circuit breakers, pump-worker pool, and suspension
// heap — and exposes the crawl's pump phases as individual calls, so
// that the event loop owns the clock, the push scheduler and record
// IDs: poll, decide whether anything arrived, dispatch and advance the
// shared clock once, click, then merge the tick's records serially in
// container-id order. Records leave the worker with ID unassigned; the
// loop mints IDs on its serial merge path. The Shard names and the
// unused shard index remain because the benchmark's traced crawl
// (bench/study.go) calls them.

// ShardSeed is one seed URL with its position in the seed list. The
// container created for it gets id Index+1, so records merge in seed
// order.
type ShardSeed struct {
	Index int
	URL   string
}

// TickStatus is a worker's scheduling state after a call: the earliest
// pending container resume and how many resumes remain queued. The
// event loop takes the earlier of it and the next scheduled push as the
// next event.
type TickStatus struct {
	NextResume time.Time
	HasResume  bool
	Queued     int
}

// ShardSeedOutcome reports one seed visit, keyed by seed index.
type ShardSeedOutcome struct {
	Index      int
	Requested  bool // page requested notification permission (an NPR)
	Registered bool // visit produced a live, subscribed container
}

// ShardSeedReport is the result of a worker's seeding phase.
type ShardSeedReport struct {
	Outcomes []ShardSeedOutcome
	Status   TickStatus
}

// TickPoll is the result of a worker's poll phase for one tick.
type TickPoll struct {
	Due    int  // containers in this tick's batch
	Any    bool // any poll returned messages
	Status TickStatus
}

// TickItem is one container's contribution to a tick: its records
// (IDs unassigned) and the §6.2 additional-subscription URLs, in
// outcome order.
type TickItem struct {
	Records        []*WPNRecord
	AdditionalURLs []string
}

// TickResult is the result of a worker's click+fold phase: non-empty
// items in ascending container-id order.
type TickResult struct {
	Items []TickItem
}

// ShardFinish is a worker's end-of-crawl accounting: its Degradation
// tallies with the final per-container losses (dropped notifications,
// undeliverable queued messages) folded in.
type ShardFinish struct {
	Degradation Degradation
}

// ShardWorker drives the crawl's containers through tick phases paced
// by the event loop. Its methods are called by one goroutine at a
// time; the clock, the push scheduler and record IDs belong to the
// loop.
type ShardWorker struct {
	cfg   Config
	tel   crawlMetrics // zero value when telemetry is disabled
	ctx   context.Context
	seeds []ShardSeed

	live    []*container
	resumes containerHeap
	batch   []*batchItem
	// end is the collection-window end, fixed at seeding (heap re-queue
	// decisions depend on it).
	end time.Time

	// mu guards deg, which the parallel visit phases tally into.
	mu  sync.Mutex
	deg Degradation
	// lostTokens are subscriptions that died with crashed containers.
	lostTokens []string
}

// NewShardWorker builds the crawl's worker. seeds carry their seed-list
// indices; cfg is the crawl config the worker and the event loop share.
// The shard index is unused. Cancelling ctx aborts visits at their next
// attempt.
func NewShardWorker(ctx context.Context, cfg Config, shard int, seeds []ShardSeed) (*ShardWorker, error) {
	if cfg.Clock == nil || cfg.NewClient == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("crawler: Clock, NewClient and Driver are required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.WithDefaults()
	return &ShardWorker{cfg: cfg, tel: newCrawlMetrics(cfg.Metrics), ctx: ctx, seeds: seeds}, nil
}

// ShardHealth is the worker's live-introspection line, served through
// /fleetz: container count, scheduling pressure, and circuit-breaker
// posture (how many per-container host circuits sit in each state — an
// "open" spike is the first visible symptom of a push-service outage).
type ShardHealth struct {
	Containers int
	Dead       int
	Queued     int
	Collected  int
	Breakers   map[string]int
}

// Health snapshots the worker's introspection state into fresh values.
// Called between phases, like every worker method.
func (w *ShardWorker) Health() *ShardHealth {
	h := &ShardHealth{Containers: len(w.live), Queued: len(w.resumes)}
	for _, ct := range w.live {
		if ct.dead {
			h.Dead++
		}
		h.Collected += ct.collected
		for _, hs := range ct.brk.Export() {
			if h.Breakers == nil {
				h.Breakers = make(map[string]int, 2)
			}
			h.Breakers[hs.State]++
		}
	}
	return h
}

// Seed visits the seed URLs in parallel containers (bounded by
// MaxContainers — the paper's 20–50 concurrent Docker sessions) and
// reports per-seed outcomes for the crawl's NPR list. Containers are
// created with their ids before any visit; those whose visit produced a
// push subscription go live. Visits do not advance the simulated clock,
// so parallelism cannot reorder time, and outcomes fold serially in
// seed order.
func (w *ShardWorker) Seed() (*ShardSeedReport, error) {
	type visitOutcome struct {
		requested, registered bool
		token                 string
	}
	containers := make([]*container, len(w.seeds))
	for i, s := range w.seeds {
		containers[i] = w.newContainer(s.Index+1, s.URL)
	}
	outcomes := make([]visitOutcome, len(w.seeds))
	sem := make(chan struct{}, w.cfg.MaxContainers)
	var wg sync.WaitGroup
	for i := range w.seeds {
		if w.ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if w.ctx.Err() != nil {
				return
			}
			vr, err := w.visitRetry(containers[i], w.seeds[i].URL)
			if err != nil {
				return // dead site after retries: container discarded
			}
			outcomes[i].requested = vr.RequestedPermission
			if vr.Registration != nil {
				outcomes[i].registered = true
				outcomes[i].token = vr.Registration.Sub.Token
			}
		}(i)
	}
	wg.Wait()

	now := w.cfg.Clock.Now()
	rep := &ShardSeedReport{}
	for i, oc := range outcomes {
		rep.Outcomes = append(rep.Outcomes, ShardSeedOutcome{
			Index: w.seeds[i].Index, Requested: oc.requested, Registered: oc.registered,
		})
		if !oc.registered {
			continue
		}
		ct := containers[i]
		ct.registeredAt = now
		ct.activeUntil = now.Add(w.cfg.MonitorWindow)
		ct.nextResume = now.Add(w.cfg.ResumeInterval)
		ct.sourceByToken[oc.token] = ct.seedURL
		ct.regTimeByToken[oc.token] = now
		w.live = append(w.live, ct)
	}
	w.resumes = make(containerHeap, len(w.live))
	copy(w.resumes, w.live)
	heap.Init(&w.resumes)
	w.end = now.Add(w.cfg.CollectionWindow)
	rep.Status = w.status()
	return rep, nil
}

func (w *ShardWorker) status() TickStatus {
	st := TickStatus{Queued: len(w.resumes)}
	if len(w.resumes) > 0 {
		st.NextResume = w.resumes[0].nextResume
		st.HasResume = true
	}
	return st
}

// Poll runs the tick's batch collection and poll phase (pump phases
// 1a/1b): due containers are popped from the suspension heap (crash
// plans consulted), live-window containers joined in, then every
// container in the batch polls the push service in parallel and the
// outcomes are classified serially. The batch stays open until Click.
// final selects the end-of-window drain batch instead.
func (w *ShardWorker) Poll(now time.Time, final bool) (*TickPoll, error) {
	if final {
		w.batch = w.finalBatch()
	} else {
		w.batch = w.collectDue(now)
	}
	any := w.phasePoll(w.batch)
	return &TickPoll{Due: len(w.batch), Any: any, Status: w.status()}, nil
}

// Dispatch runs pump phase 2 on the open batch. The event loop calls
// it only on ticks where the poll returned messages, before advancing
// the shared clock by ClickDelay.
func (w *ShardWorker) Dispatch() error {
	w.phaseDispatch(w.batch)
	return nil
}

// Click runs pump phase 4 (auto-clicks + landing-page subscription
// visits) and folds the batch into container state, returning the
// tick's records (IDs unassigned) and additional URLs per container.
// On ticks with no messages the event loop skips Dispatch and the
// clock advance and calls Click directly; the phases are no-ops then
// and the call just closes the batch.
func (w *ShardWorker) Click() (*TickResult, error) {
	w.phaseClick(w.batch)
	res := &TickResult{}
	for _, it := range w.batch {
		recs, additional := w.foldItem(it)
		if len(recs) > 0 || len(additional) > 0 {
			res.Items = append(res.Items, TickItem{Records: recs, AdditionalURLs: additional})
		}
	}
	w.observeBatchLatency(w.batch)
	w.batch = nil
	return res, nil
}

// Finish returns the worker's final accounting: its Degradation with
// the end-of-crawl per-container losses folded in — notifications the
// live browsers dropped, and messages still queued for subscriptions
// lost in crashes, which can never be collected.
func (w *ShardWorker) Finish() (*ShardFinish, error) {
	deg := w.deg
	for _, ct := range w.live {
		deg.DroppedNotifications += ct.br.DroppedNotifications()
	}
	if w.cfg.Pending != nil {
		for _, tok := range w.lostTokens {
			deg.RecordsDroppedEst += w.cfg.Pending.Pending(tok)
		}
	}
	return &ShardFinish{Degradation: deg}, nil
}
