package crawler

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file implements the shard-worker side of the crawl fleet
// (internal/fleet owns the coordinator). A ShardWorker owns a disjoint
// subset of the global container set — its own browsers, per-container
// circuit breakers, pump-worker pool, and suspension heap — and exposes
// the crawl's pump phases as individual calls so the coordinator can
// run one global tick across all shards: poll everywhere, decide
// whether anything arrived, dispatch + advance the shared clock once,
// click everywhere, then merge the shards' records serially in
// container-id order. Records leave the worker with ID unassigned; the
// coordinator mints IDs on its serial merge path, which is what makes a
// fleet run byte-identical at every shard count.

// ShardSeed is one seed URL with its position in the *global* seed
// list. The container created for it gets id Index+1 whichever shard
// owns it, so cross-shard id-order merges reproduce one record order at
// every shard count.
type ShardSeed struct {
	Index int    `json:"index"`
	URL   string `json:"url"`
}

// TickStatus is a worker's scheduling state after a call: the earliest
// pending container resume and how many resumes remain queued. The
// coordinator takes the minimum across shards to find the next global
// event.
type TickStatus struct {
	NextResume time.Time
	HasResume  bool
	Queued     int
}

// ShardSeedOutcome reports one seed visit, keyed by global seed index.
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
	ContainerID    int
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

// ShardWorker drives one shard's containers through coordinator-paced
// tick phases. All methods are called by one goroutine at a time (the
// coordinator serializes per-shard calls); distinct workers may run
// their phases concurrently — all cross-shard state (the clock, the
// push scheduler, record IDs) is owned by the coordinator.
type ShardWorker struct {
	cfg   Config
	tel   crawlMetrics // zero value when telemetry is disabled
	ctx   context.Context
	id    int
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

	// dirty marks shard state changed since the last TakeDirty, so the
	// fleet persists exactly the ticks that mutated something.
	dirty bool
}

// NewShardWorker builds a worker for one shard of the fleet. seeds
// carry global indices; cfg is the same crawl config every shard and
// the coordinator share. Cancelling ctx aborts visits at their next
// attempt.
func NewShardWorker(ctx context.Context, cfg Config, shard int, seeds []ShardSeed) (*ShardWorker, error) {
	if cfg.Clock == nil || cfg.NewClient == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("crawler: Clock, NewClient and Driver are required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.WithDefaults()
	return &ShardWorker{cfg: cfg, tel: newCrawlMetrics(cfg.Metrics), ctx: ctx, id: shard, seeds: seeds}, nil
}

// ShardID returns the worker's shard number.
func (w *ShardWorker) ShardID() int { return w.id }

// Containers returns how many containers the worker currently owns.
func (w *ShardWorker) Containers() int { return len(w.live) }

// ShardHealth is one worker's live-introspection line, served through
// the fleet's /fleetz endpoint: container ownership, scheduling
// pressure, and circuit-breaker posture (how many per-container host
// circuits sit in each state — a fleet-wide "open" spike is the first
// visible symptom of a push-service outage).
type ShardHealth struct {
	Shard      int            `json:"shard"`
	Containers int            `json:"containers"`
	Dead       int            `json:"dead,omitempty"`
	Queued     int            `json:"queued"`
	Collected  int            `json:"collected"`
	Breakers   map[string]int `json:"breakers,omitempty"`
}

// Health snapshots the worker's introspection state. Called on the
// coordinator's serial path (same discipline as every worker method).
func (w *ShardWorker) Health() *ShardHealth {
	h := &ShardHealth{Shard: w.id, Containers: len(w.live), Queued: len(w.resumes)}
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

// TakeDirty reports whether shard state changed since the last call,
// clearing the flag.
func (w *ShardWorker) TakeDirty() bool {
	d := w.dirty
	w.dirty = false
	return d
}

// Seed visits the shard's seed URLs in parallel containers (bounded by
// MaxContainers — the paper's 20–50 concurrent Docker sessions) and
// reports per-seed outcomes for the coordinator's global NPR list.
// Containers are created with their global ids before any visit; those
// whose visit produced a push subscription go live. Visits do not
// advance the simulated clock, so parallelism cannot reorder time, and
// outcomes fold serially in seed order.
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
	w.dirty = true
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
	popped := len(w.resumes) > 0 && !w.resumes[0].nextResume.After(now)
	if final {
		w.batch = w.finalBatch()
	} else {
		w.batch = w.collectDue(now)
	}
	if popped || len(w.batch) > 0 {
		w.dirty = true
	}
	any := w.phasePoll(w.batch)
	return &TickPoll{Due: len(w.batch), Any: any, Status: w.status()}, nil
}

// Dispatch runs pump phase 2 on the open batch. The coordinator calls
// it only on ticks where some shard's poll returned messages, before
// advancing the shared clock by ClickDelay.
func (w *ShardWorker) Dispatch() error {
	w.phaseDispatch(w.batch)
	return nil
}

// Click runs pump phase 4 (auto-clicks + landing-page subscription
// visits) and folds the batch into container state, returning the
// tick's records (IDs unassigned) and additional URLs per container.
// On ticks with no messages anywhere the coordinator skips Dispatch
// and the clock advance and calls Click directly; the phases are
// no-ops then and the call just closes the batch.
func (w *ShardWorker) Click() (*TickResult, error) {
	w.phaseClick(w.batch)
	res := &TickResult{}
	for _, it := range w.batch {
		recs, additional := w.foldItem(it)
		if len(recs) > 0 || len(additional) > 0 {
			res.Items = append(res.Items, TickItem{
				ContainerID: it.ct.id, Records: recs, AdditionalURLs: additional,
			})
		}
	}
	w.observeBatchLatency(w.batch)
	w.batch = nil
	return res, nil
}

// Finish returns the shard's final accounting: its Degradation with
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

// Adopt transfers another (dead) shard's persisted containers into this
// worker — the work-stealing rebalance. The orphans join the live set
// and the suspension heap exactly as their last saved state left them,
// chain-recorder state included (every shard traces into the crawl's
// one tracer, so the saved span IDs name spans of this worker's tracer
// too), and the dead shard's Degradation tallies and lost tokens fold
// in so the fleet's final aggregate misses nothing.
func (w *ShardWorker) Adopt(st *ShardState) error {
	held := make(map[int]bool, len(w.seeds))
	for _, s := range w.seeds {
		held[s.Index] = true
	}
	if err := w.checkState(st, held); err != nil {
		return err
	}
	for i := range st.Containers {
		ct := w.containerFromState(&st.Containers[i])
		w.live = append(w.live, ct)
		if st.Containers[i].InHeap {
			heap.Push(&w.resumes, ct)
		}
	}
	sort.Slice(w.live, func(i, j int) bool { return w.live[i].id < w.live[j].id })
	w.seeds = append(w.seeds, st.Seeds...)
	sort.Slice(w.seeds, func(i, j int) bool { return w.seeds[i].Index < w.seeds[j].Index })
	w.deg.Merge(st.Degradation)
	w.lostTokens = append(w.lostTokens, st.LostTokens...)
	w.dirty = true
	return nil
}

// checkState rejects a state this worker cannot restore or adopt:
// another format version or device, or a malformed body — a seed index
// listed twice or already held by this worker (held, for adoption), a
// container whose id is missing from the state's seeds or appears
// twice, or a registration the pump phases would dereference without a
// script or poll without a token. Restoring such a state would panic on
// a pool goroutine at the next poll instead of failing here.
func (w *ShardWorker) checkState(st *ShardState, held map[int]bool) error {
	if st == nil {
		return fmt.Errorf("crawler: nil shard state")
	}
	if st.Version != ShardStateVersion {
		return fmt.Errorf("crawler: shard state version %d, want %d", st.Version, ShardStateVersion)
	}
	if dev := w.cfg.Device.String(); st.Device != dev {
		return fmt.Errorf("crawler: shard state is for device %q, this worker is %q", st.Device, dev)
	}
	seeded := make(map[int]bool, len(st.Seeds))
	for _, s := range st.Seeds {
		if s.Index < 0 || seeded[s.Index] || held[s.Index] {
			return fmt.Errorf("crawler: shard state seed index %d invalid or repeated", s.Index)
		}
		seeded[s.Index] = true
	}
	seen := make(map[int]bool, len(st.Containers))
	for _, cs := range st.Containers {
		id := cs.Cursor.ID
		switch {
		case !seeded[id-1]:
			return fmt.Errorf("crawler: shard state container %d has no seed", id)
		case seen[id]:
			return fmt.Errorf("crawler: shard state container %d appears twice", id)
		}
		seen[id] = true
		for _, reg := range cs.Registrations {
			if reg == nil || reg.Script == nil || reg.Sub.Token == "" {
				return fmt.Errorf("crawler: shard state container %d has a malformed registration", id)
			}
		}
	}
	return nil
}
