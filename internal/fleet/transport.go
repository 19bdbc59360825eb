package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
)

// ErrWorkerDown reports that a shard worker's process is gone: its
// heartbeat failed, or an operation was attempted against a dead
// worker. The coordinator reacts with restart or work-stealing.
var ErrWorkerDown = errors.New("fleet: worker down")

// Transport is the coordinator's view of shard workers. The in-process
// implementation below runs "virtual shards" (the workers live in the
// same process, kills are simulated); the interface is shaped so a
// subprocess/loopback implementation can replace it without touching
// the coordinator: every call names a shard, carries plain serializable
// data, and can fail with ErrWorkerDown.
type Transport interface {
	// Heartbeat checks shard's liveness for one heartbeat cycle.
	// Returns ErrWorkerDown when the worker is (or just became) dead.
	Heartbeat(shard, cycle int) error
	// Seed runs the shard's seeding phase. seg is the coordinator-minted
	// global trace segment for the phase (every Seed/Poll/Dispatch/
	// Click/Finish call carries one): the worker stamps it onto spans it
	// emits during the call, which is what lets the coordinator stitch
	// per-shard span streams back into one globally ordered trace.
	Seed(shard int, seg int64) (*crawler.ShardSeedReport, error)
	// Poll / Dispatch / Click run the shard's pump phases for one tick.
	Poll(shard int, seg int64, now time.Time, final bool) (*crawler.TickPoll, error)
	Dispatch(shard int, seg int64) error
	Click(shard int, seg int64) (*crawler.TickResult, error)
	// Finish returns the shard's end-of-crawl accounting.
	Finish(shard int, seg int64) (*crawler.ShardFinish, error)
	// Restart revives a dead worker from its last durable state.
	// fellBack reports the primary state file was unusable and the
	// rotated .bak was used.
	Restart(shard int) (fellBack bool, err error)
	// Orphans loads a dead worker's last durable state for adoption.
	Orphans(shard int) (st *crawler.ShardState, fellBack bool, err error)
	// Adopt merges an orphaned shard's state into a live worker.
	Adopt(shard int, st *crawler.ShardState) error
	// Telemetry pulls the shard's current metrics snapshot and health
	// line. The coordinator calls it once per shard per heartbeat cycle
	// and folds the snapshots into the fleet-wide registry at the end of
	// the run, so per-shard instruments survive the shard's process.
	// Fails with ErrWorkerDown for dead workers — the coordinator then
	// keeps serving its last pulled view (that staleness is what the
	// fleet_telemetry_merge_lag_cycles gauge measures).
	Telemetry(shard int) (*ShardTelemetry, error)
	// Spans drains nothing: it returns a copy of every trace span the
	// shard has emitted, segment stamps included, for end-of-run
	// stitching. Spans cannot be pulled incrementally — chain spans are
	// retroactively mutated (EndAt/SetAttr) while their chain is open —
	// so the transport owns each shard's span buffer for the whole run,
	// across worker restarts. (A subprocess transport will need to ship
	// the buffer on worker exit and keep the coordinator's copy per
	// shard; the pull-whole-at-finish contract stays the same.)
	Spans(shard int) ([]telemetry.Span, error)
	// StateSaves reports how many shard-state writes the transport has
	// performed (fleet Report bookkeeping).
	StateSaves() int
}

// ShardTelemetry is one shard's observability pull: its private
// registry's snapshot plus its live health line.
type ShardTelemetry struct {
	Snapshot telemetry.Snapshot   `json:"snapshot"`
	Health   *crawler.ShardHealth `json:"health,omitempty"`
}

// localTransport runs every shard worker in-process. Durability is
// real — shard state is written to Dir after every tick that changed
// something — and kills are simulated by dropping the in-memory worker,
// so restart-with-resume exercises the exact deserialization path a
// subprocess transport would.
//
// Kills happen only inside Heartbeat, i.e. at tick boundaries, after
// the previous tick's state save. That models a crash-consistent
// worker: a real subprocess killed mid-poll would lose push messages
// the service had already handed over, which no checkpoint can rebuild
// — the subprocess transport will need poll acknowledgement before
// drain; the in-process fleet keeps the boundary-kill model and
// documents it (DESIGN.md, "Fleet architecture & failure model").
type localTransport struct {
	ctx     context.Context
	cfg     crawler.Config
	dir     string
	durable bool
	plan    func(workerID string, cycle int) bool
	met     *fleetMetrics

	workers []*crawler.ShardWorker
	names   []string
	dead    []bool

	// Per-shard observability plane: each worker gets a private
	// registry and tracer (nil when the fleet's are nil — disabled
	// stays free), wired through cfgs[k]. Both are transport-owned and
	// survive worker kills and restarts: they stand in for the pull
	// stream a subprocess transport would maintain coordinator-side
	// (per-heartbeat snapshot pulls, span shipping on worker exit), so
	// no counter or span is lost when the in-memory worker is dropped.
	cfgs    []crawler.Config
	regs    []*telemetry.Registry
	tracers []*telemetry.Tracer

	saves atomic.Int64
}

func newLocalTransport(ctx context.Context, cfg crawler.Config, names []string, seedsByShard [][]crawler.ShardSeed, dir string, durable bool, plan func(string, int) bool, met *fleetMetrics) (*localTransport, error) {
	t := &localTransport{
		ctx:     ctx,
		cfg:     cfg,
		dir:     dir,
		durable: durable,
		plan:    plan,
		met:     met,
		workers: make([]*crawler.ShardWorker, len(names)),
		names:   names,
		dead:    make([]bool, len(names)),
		cfgs:    make([]crawler.Config, len(names)),
		regs:    make([]*telemetry.Registry, len(names)),
		tracers: make([]*telemetry.Tracer, len(names)),
	}
	for k := range names {
		shardCfg := cfg
		if cfg.Metrics != nil {
			t.regs[k] = telemetry.New()
			shardCfg.Metrics = t.regs[k]
		}
		if cfg.Tracer != nil {
			t.tracers[k] = telemetry.NewTracer(nil)
			shardCfg.Tracer = t.tracers[k]
		}
		t.cfgs[k] = shardCfg
		w, err := crawler.NewShardWorker(ctx, shardCfg, k, seedsByShard[k])
		if err != nil {
			return nil, err
		}
		t.workers[k] = w
	}
	return t, nil
}

// setSeg stamps the coordinator's global phase segment onto the shard's
// tracer before a phase runs. Nil-safe (tracing disabled).
func (t *localTransport) setSeg(shard int, seg int64) {
	t.tracers[shard].SetSegment(seg)
}

// statePath names shard k's durable state file.
func (t *localTransport) statePath(shard int) string {
	return filepath.Join(t.dir, fmt.Sprintf("shard-%d.json", shard))
}

// worker returns the live worker for shard, or ErrWorkerDown.
func (t *localTransport) worker(shard int) (*crawler.ShardWorker, error) {
	if shard < 0 || shard >= len(t.workers) {
		return nil, fmt.Errorf("fleet: no shard %d", shard)
	}
	if t.dead[shard] || t.workers[shard] == nil {
		return nil, fmt.Errorf("fleet: shard %d: %w", shard, ErrWorkerDown)
	}
	return t.workers[shard], nil
}

func (t *localTransport) Heartbeat(shard, cycle int) error {
	start := time.Now()
	defer func() {
		t.met.heartbeatSeconds.Observe(time.Since(start).Seconds())
	}()
	t.met.heartbeats.Inc()
	w, err := t.worker(shard)
	if err != nil {
		return err
	}
	if t.plan != nil && t.plan(t.names[shard], cycle) {
		// The process dies: all in-memory state is gone. Only the
		// durable state file survives.
		_ = w
		t.workers[shard] = nil
		t.dead[shard] = true
		return fmt.Errorf("fleet: shard %d killed at heartbeat cycle %d: %w", shard, cycle, ErrWorkerDown)
	}
	return nil
}

// maybeSave persists the worker's state if it changed this tick.
func (t *localTransport) maybeSave(shard int, w *crawler.ShardWorker) error {
	if !t.durable || !w.TakeDirty() {
		return nil
	}
	st, err := w.State()
	if err != nil {
		return err
	}
	if err := crawler.SaveShardState(t.statePath(shard), st); err != nil {
		// A failed save means a later restart would silently resume
		// from stale state and break parity: fail loud instead.
		return err
	}
	t.saves.Add(1)
	t.met.stateSaves.Inc()
	return nil
}

func (t *localTransport) Seed(shard int, seg int64) (*crawler.ShardSeedReport, error) {
	w, err := t.worker(shard)
	if err != nil {
		return nil, err
	}
	t.setSeg(shard, seg)
	rep, err := w.Seed()
	if err != nil {
		return nil, err
	}
	return rep, t.maybeSave(shard, w)
}

func (t *localTransport) Poll(shard int, seg int64, now time.Time, final bool) (*crawler.TickPoll, error) {
	w, err := t.worker(shard)
	if err != nil {
		return nil, err
	}
	t.setSeg(shard, seg)
	return w.Poll(now, final)
}

func (t *localTransport) Dispatch(shard int, seg int64) error {
	w, err := t.worker(shard)
	if err != nil {
		return err
	}
	t.setSeg(shard, seg)
	return w.Dispatch()
}

func (t *localTransport) Click(shard int, seg int64) (*crawler.TickResult, error) {
	w, err := t.worker(shard)
	if err != nil {
		return nil, err
	}
	t.setSeg(shard, seg)
	res, err := w.Click()
	if err != nil {
		return nil, err
	}
	return res, t.maybeSave(shard, w)
}

func (t *localTransport) Finish(shard int, seg int64) (*crawler.ShardFinish, error) {
	w, err := t.worker(shard)
	if err != nil {
		return nil, err
	}
	t.setSeg(shard, seg)
	return w.Finish()
}

func (t *localTransport) Telemetry(shard int) (*ShardTelemetry, error) {
	w, err := t.worker(shard)
	if err != nil {
		return nil, err
	}
	return &ShardTelemetry{Snapshot: t.regs[shard].Snapshot(), Health: w.Health()}, nil
}

func (t *localTransport) Spans(shard int) ([]telemetry.Span, error) {
	if shard < 0 || shard >= len(t.tracers) {
		return nil, fmt.Errorf("fleet: no shard %d", shard)
	}
	// Deliberately no liveness check: the span buffer is
	// transport-owned and outlives the worker (see the interface doc),
	// so a lost shard's chains still reach the stitched trace.
	return t.tracers[shard].Spans(), nil
}

func (t *localTransport) Restart(shard int) (bool, error) {
	if !t.durable {
		return false, fmt.Errorf("fleet: shard %d: restart without durable state", shard)
	}
	st, fellBack, err := crawler.LoadShardState(t.statePath(shard))
	if err != nil {
		return false, fmt.Errorf("fleet: restart shard %d: %w", shard, err)
	}
	// Restore with the shard's own config so the revived worker keeps
	// feeding the same transport-owned registry and tracer.
	w, err := crawler.RestoreShardWorker(t.ctx, t.cfgs[shard], st)
	if err != nil {
		return fellBack, fmt.Errorf("fleet: restart shard %d: %w", shard, err)
	}
	t.workers[shard] = w
	t.dead[shard] = false
	return fellBack, nil
}

func (t *localTransport) Orphans(shard int) (*crawler.ShardState, bool, error) {
	if !t.durable {
		return nil, false, fmt.Errorf("fleet: shard %d: no durable state to adopt", shard)
	}
	st, fellBack, err := crawler.LoadShardState(t.statePath(shard))
	if err != nil {
		return nil, false, fmt.Errorf("fleet: orphans of shard %d: %w", shard, err)
	}
	return st, fellBack, nil
}

func (t *localTransport) Adopt(shard int, st *crawler.ShardState) error {
	w, err := t.worker(shard)
	if err != nil {
		return err
	}
	if err := w.Adopt(st); err != nil {
		return err
	}
	return t.maybeSave(shard, w)
}

func (t *localTransport) StateSaves() int { return int(t.saves.Load()) }
