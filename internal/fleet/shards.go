package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"pushadminer/internal/crawler"
)

// ErrWorkerDown reports that a shard worker is gone: its heartbeat
// failed, or an operation was attempted against a dead worker. The
// coordinator reacts with restart or work-stealing.
var ErrWorkerDown = errors.New("fleet: worker down")

// shardSet runs every shard worker in-process ("virtual shards").
// Durability is real — shard state is written to dir after every tick
// that changed something — and kills are simulated by dropping the
// in-memory worker, so restart-with-resume exercises the full
// deserialization path.
//
// Every worker, restored and adopting ones included, runs on the
// crawl's own config, so all of them count into the crawl's one
// registry and trace into its one tracer. That is exact: workers
// register no gauges, and counters, family members and histogram
// buckets are atomic adds, so the registry holds what every worker did,
// lost or not; and saved chain-recorder state names spans of the tracer
// the restoring or adopting worker writes to.
//
// Kills happen only inside Heartbeat, i.e. at tick boundaries, after
// the previous tick's state save. That models a crash-consistent
// worker: a worker process killed mid-poll would lose push messages
// the service had already handed over, which no checkpoint can rebuild.
// Workers in separate processes would need poll acknowledgement before
// drain, and would have to ship their telemetry and spans to the
// coordinator; the in-process fleet keeps the boundary-kill model and
// documents it (DESIGN.md, "Fleet architecture & failure model").
type shardSet struct {
	ctx     context.Context
	cfg     crawler.Config
	dir     string
	durable bool
	plan    func(workerID string, cycle int) bool
	met     *fleetMetrics

	workers []*crawler.ShardWorker // nil for a dead worker
	names   []string

	saves atomic.Int64
}

func newShardSet(ctx context.Context, cfg crawler.Config, names []string, seedsByShard [][]crawler.ShardSeed, dir string, durable bool, plan func(string, int) bool, met *fleetMetrics) (*shardSet, error) {
	s := &shardSet{
		ctx:     ctx,
		cfg:     cfg,
		dir:     dir,
		durable: durable,
		plan:    plan,
		met:     met,
		workers: make([]*crawler.ShardWorker, len(names)),
		names:   names,
	}
	for k := range names {
		w, err := crawler.NewShardWorker(ctx, cfg, k, seedsByShard[k])
		if err != nil {
			return nil, err
		}
		s.workers[k] = w
	}
	return s, nil
}

// statePath names shard k's durable state file.
func (s *shardSet) statePath(shard int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%d.json", shard))
}

// worker returns the live worker for shard, or ErrWorkerDown.
func (s *shardSet) worker(shard int) (*crawler.ShardWorker, error) {
	if shard < 0 || shard >= len(s.workers) {
		return nil, fmt.Errorf("fleet: no shard %d", shard)
	}
	if s.workers[shard] == nil {
		return nil, fmt.Errorf("fleet: shard %d: %w", shard, ErrWorkerDown)
	}
	return s.workers[shard], nil
}

// Heartbeat checks shard's liveness for one heartbeat cycle. Returns
// ErrWorkerDown when the worker is (or just became) dead.
func (s *shardSet) Heartbeat(shard, cycle int) error {
	start := time.Now()
	defer func() {
		s.met.heartbeatSeconds.Observe(time.Since(start).Seconds())
	}()
	s.met.heartbeats.Inc()
	if _, err := s.worker(shard); err != nil {
		return err
	}
	if s.plan != nil && s.plan(s.names[shard], cycle) {
		// The worker dies: all in-memory state is gone. Only the
		// durable state file survives.
		s.workers[shard] = nil
		return fmt.Errorf("fleet: shard %d killed at heartbeat cycle %d: %w", shard, cycle, ErrWorkerDown)
	}
	return nil
}

// maybeSave persists the worker's state if it changed this tick.
func (s *shardSet) maybeSave(shard int, w *crawler.ShardWorker) error {
	if !s.durable || !w.TakeDirty() {
		return nil
	}
	st, err := w.State()
	if err != nil {
		return err
	}
	if err := crawler.SaveShardState(s.statePath(shard), st); err != nil {
		// A failed save means a later restart would silently resume
		// from stale state and break parity: fail loud instead.
		return err
	}
	s.saves.Add(1)
	s.met.stateSaves.Inc()
	return nil
}

// Seed runs the shard's seeding phase.
func (s *shardSet) Seed(shard int) (*crawler.ShardSeedReport, error) {
	w, err := s.worker(shard)
	if err != nil {
		return nil, err
	}
	rep, err := w.Seed()
	if err != nil {
		return nil, err
	}
	return rep, s.maybeSave(shard, w)
}

// Poll, Dispatch and Click run the shard's pump phases for one tick.
func (s *shardSet) Poll(shard int, now time.Time, final bool) (*crawler.TickPoll, error) {
	w, err := s.worker(shard)
	if err != nil {
		return nil, err
	}
	return w.Poll(now, final)
}

func (s *shardSet) Dispatch(shard int) error {
	w, err := s.worker(shard)
	if err != nil {
		return err
	}
	return w.Dispatch()
}

func (s *shardSet) Click(shard int) (*crawler.TickResult, error) {
	w, err := s.worker(shard)
	if err != nil {
		return nil, err
	}
	res, err := w.Click()
	if err != nil {
		return nil, err
	}
	return res, s.maybeSave(shard, w)
}

// Finish returns the shard's end-of-crawl accounting.
func (s *shardSet) Finish(shard int) (*crawler.ShardFinish, error) {
	w, err := s.worker(shard)
	if err != nil {
		return nil, err
	}
	return w.Finish()
}

// Health returns the live worker's /fleetz line, or nil for a dead one.
func (s *shardSet) Health(shard int) *crawler.ShardHealth {
	w, err := s.worker(shard)
	if err != nil {
		return nil
	}
	return w.Health()
}

// Restart revives a dead worker from its last durable state. fellBack
// reports the primary state file was unusable and the rotated .bak was
// used.
func (s *shardSet) Restart(shard int) (fellBack bool, err error) {
	if !s.durable {
		return false, fmt.Errorf("fleet: shard %d: restart without durable state", shard)
	}
	st, fellBack, err := crawler.LoadShardState(s.statePath(shard))
	if err != nil {
		return false, fmt.Errorf("fleet: restart shard %d: %w", shard, err)
	}
	w, err := crawler.RestoreShardWorker(s.ctx, s.cfg, st)
	if err != nil {
		return fellBack, fmt.Errorf("fleet: restart shard %d: %w", shard, err)
	}
	s.workers[shard] = w
	return fellBack, nil
}

// Orphans loads a dead worker's last durable state for adoption.
func (s *shardSet) Orphans(shard int) (*crawler.ShardState, bool, error) {
	if !s.durable {
		return nil, false, fmt.Errorf("fleet: shard %d: no durable state to adopt", shard)
	}
	st, fellBack, err := crawler.LoadShardState(s.statePath(shard))
	if err != nil {
		return nil, false, fmt.Errorf("fleet: orphans of shard %d: %w", shard, err)
	}
	return st, fellBack, nil
}

// Adopt merges an orphaned shard's state into a live worker.
func (s *shardSet) Adopt(shard int, st *crawler.ShardState) error {
	w, err := s.worker(shard)
	if err != nil {
		return err
	}
	if err := w.Adopt(st); err != nil {
		return err
	}
	return s.maybeSave(shard, w)
}

// StateSaves reports how many shard-state writes the set has performed.
func (s *shardSet) StateSaves() int { return int(s.saves.Load()) }
