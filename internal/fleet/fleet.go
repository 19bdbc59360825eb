// Package fleet drives every WPN crawl: a coordinator plus N shard
// workers (one for a plain crawl) under a self-healing control plane.
// Each shard owns a disjoint subset of the containers — its own
// browsers, per-container circuit breakers, pump-worker pool,
// suspension heap, and durable state file — while the coordinator owns
// everything global: the simulated clock, the push scheduler, record-ID
// minting, and the serial id-order merge of shard results.
//
// The control plane heartbeats every worker at tick boundaries, detects
// dead workers (driven by a chaos crash plan in tests), restarts them
// from their last saved shard state a bounded number of times, and when
// a worker's restart budget is exhausted rebalances its orphaned
// containers onto the least-loaded live worker (work stealing). Because
// workers only die at tick boundaries — after their state save — and
// restore is pure deserialization, a fleet run at ANY shard count,
// under ANY kill schedule, produces byte-identical records and an
// identical Degradation report to a kill-free one-shard run. The fleet
// parity matrix test pins exactly that, against a reference loop that
// drives a single ShardWorker directly.
//
// Workers run in-process behind the Transport interface ("virtual
// shards"); a subprocess/loopback transport can replace localTransport
// without touching the coordinator.
package fleet

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"pushadminer/internal/crawler"
	"pushadminer/internal/telemetry"
)

// Config configures a fleet crawl.
type Config struct {
	// Crawl is the shared crawl configuration every shard worker and the
	// coordinator use.
	Crawl crawler.Config
	// Shards is the number of shard workers. <= 0 defaults to 1.
	Shards int
	// Heartbeat is the simulated-time liveness-check period. Worker
	// crash plans are consulted once per elapsed heartbeat cycle, at
	// tick boundaries. <= 0 defaults to 6h.
	Heartbeat time.Duration
	// MaxRestarts bounds restart-with-resume attempts per worker; after
	// the budget a dead worker's containers are stolen by a live one.
	// The last live worker is always restarted (nothing could steal its
	// containers). 0 defaults to 2; negative means never restart (steal
	// immediately).
	MaxRestarts int
	// Dir is where shard state files (shard-<k>.json) are written.
	// Empty with a WorkerCrashPlan set uses a private temp directory;
	// empty without one disables shard durability entirely.
	Dir string
	// WorkerCrashPlan, if non-nil, is asked at each worker heartbeat
	// whether that worker's process dies now. Wire
	// webeco.Ecosystem.WorkerCrashPlan here to drive it from a chaos
	// profile ("workercrashes=F").
	WorkerCrashPlan func(workerID string, cycle int) bool
	// Ledger, if non-nil, receives every control-plane lifecycle event,
	// stamped with the simulated clock and attributed by "device" (and
	// "shard", except for fleet-wide events). The events are
	// deterministic under a fixed chaos plan: two identical runs append
	// identical events.
	Ledger *telemetry.Ledger
}

// Fleet event kinds, in the order a shard's life emits them.
const (
	EvShardStarted    = "shard_started"    // seeding done, container count settled
	EvHeartbeatMissed = "heartbeat_missed" // liveness check got no answer
	EvKillDetected    = "kill_detected"    // the miss was a worker death
	EvRestart         = "restart"          // revived from durable shard state
	EvWorkerLost      = "worker_lost"      // restart budget exhausted
	EvOrphanSteal     = "orphan_steal"     // dead worker's state loaded for rebalance
	EvAdopt           = "adopt"            // a live worker adopted the orphans
	EvMerge           = "merge"            // a tick's records merged (records > 0)
)

// WorkerStatus is one worker's line in the fleet report.
type WorkerStatus struct {
	Shard int `json:"shard"`
	// Containers is how many containers the worker owned at the end
	// (seeded survivors plus adoptions; zero for lost workers).
	Containers int  `json:"containers"`
	Restarts   int  `json:"restarts,omitempty"`
	Adopted    int  `json:"adopted,omitempty"`
	Lost       bool `json:"lost,omitempty"`
}

// Report is the fleet run's control-plane accounting, alongside the
// crawl Result (which is byte-identical at every shard count).
type Report struct {
	Shards     int            `json:"shards"`
	Workers    []WorkerStatus `json:"workers"`
	Heartbeats int            `json:"heartbeats"`
	// Kills counts worker deaths; Restarts successful revivals;
	// WorkersLost workers whose restart budget ran out.
	Kills       int `json:"kills,omitempty"`
	Restarts    int `json:"restarts,omitempty"`
	WorkersLost int `json:"workers_lost,omitempty"`
	// ContainersStolen counts containers rebalanced off dead workers.
	ContainersStolen int `json:"containers_stolen,omitempty"`
	// StateSaves counts shard-state writes; StateFallbacks counts
	// restores that used a rotated .bak because the primary state file
	// was unreadable.
	StateSaves     int `json:"state_saves,omitempty"`
	StateFallbacks int `json:"state_fallbacks,omitempty"`
	// TelemetryPulls counts per-shard snapshot pulls over the transport
	// (one per shard per heartbeat cycle, plus the final absorb pull);
	// StitchedSpans counts trace spans reassembled from shard tracers.
	TelemetryPulls int `json:"telemetry_pulls,omitempty"`
	StitchedSpans  int `json:"stitched_spans,omitempty"`

	// ShardSnapshots[k] is shard k's final telemetry snapshot as pulled
	// for the end-of-run absorb; Coordinator is the coordinator's own
	// registry snapshot captured immediately before the absorb. The
	// exact-merge contract — final registry state equals Coordinator
	// merged with every ShardSnapshot — is pinned by the fleet parity
	// matrix. Test/introspection surface, not serialized.
	ShardSnapshots []telemetry.Snapshot `json:"-"`
	Coordinator    telemetry.Snapshot   `json:"-"`
}

// fleetMetrics holds the control plane's preresolved instruments.
// All-nil (telemetry disabled) no-ops per the telemetry contract.
type fleetMetrics struct {
	shards           *telemetry.Gauge
	liveShards       *telemetry.Gauge
	heartbeats       *telemetry.Counter
	kills            *telemetry.Counter
	restarts         *telemetry.Counter
	workersLost      *telemetry.Counter
	containersStolen *telemetry.Counter
	stateSaves       *telemetry.Counter
	stateFallbacks   *telemetry.Counter
	heartbeatSeconds *telemetry.Histogram
	telemetryPulls   *telemetry.Counter
	mergeLag         *telemetry.Gauge
	traceSpans       *telemetry.Counter
	events           *telemetry.Family
}

func newFleetMetrics(reg *telemetry.Registry) *fleetMetrics {
	if reg == nil {
		return &fleetMetrics{}
	}
	return &fleetMetrics{
		shards:           reg.Gauge("fleet_shards"),
		liveShards:       reg.Gauge("fleet_live_shards"),
		heartbeats:       reg.Counter("fleet_heartbeats"),
		kills:            reg.Counter("fleet_worker_kills"),
		restarts:         reg.Counter("fleet_worker_restarts"),
		workersLost:      reg.Counter("fleet_workers_lost"),
		containersStolen: reg.Counter("fleet_containers_stolen"),
		stateSaves:       reg.Counter("fleet_shard_state_saves"),
		stateFallbacks:   reg.Counter("fleet_shard_state_fallbacks"),
		heartbeatSeconds: reg.Histogram("fleet_heartbeat_seconds", telemetry.LatencyBuckets),
		telemetryPulls:   reg.Counter("fleet_telemetry_pulls"),
		mergeLag:         reg.Gauge("fleet_telemetry_merge_lag_cycles"),
		traceSpans:       reg.Counter("fleet_trace_spans"),
		events:           reg.Family("fleet_events", "kind"),
	}
}

// ShardStatus is one worker's row in the live /fleetz view.
type ShardStatus struct {
	Shard      int  `json:"shard"`
	Alive      bool `json:"alive"`
	Containers int  `json:"containers"`
	Queued     int  `json:"queued"`
	Collected  int  `json:"collected"`
	Dead       int  `json:"dead_containers,omitempty"`
	Restarts   int  `json:"restarts"`
	// RestartBudget is how many restarts remain before the worker's
	// containers are stolen.
	RestartBudget int  `json:"restart_budget"`
	Adopted       int  `json:"adopted,omitempty"`
	Lost          bool `json:"lost,omitempty"`
	// Breakers counts the shard's per-container host circuits by state
	// ("open" spiking fleet-wide is the first symptom of an outage).
	Breakers map[string]int `json:"breakers,omitempty"`
	// MergeLagCycles is how many heartbeat cycles behind the
	// coordinator's telemetry view of this shard is (0 = current).
	MergeLagCycles int `json:"merge_lag_cycles"`
}

// FleetStatus is the live introspection snapshot served at /fleetz:
// built by the coordinator on its serial path after every heartbeat
// sweep and merge, published atomically, and rendered as JSON or (via
// String) a one-screen text dashboard.
type FleetStatus struct {
	Device     string        `json:"device"`
	Shards     int           `json:"shards"`
	LiveShards int           `json:"live_shards"`
	Heartbeats int           `json:"heartbeats"`
	Kills      int           `json:"kills"`
	Restarts   int           `json:"restarts"`
	Lost       int           `json:"workers_lost"`
	Stolen     int           `json:"containers_stolen"`
	Records    int           `json:"records"`
	Events     int           `json:"events"`
	SimTime    time.Time     `json:"sim_time"`
	WindowEnd  time.Time     `json:"window_end"`
	Done       bool          `json:"done"`
	Workers    []ShardStatus `json:"workers"`
}

// String renders the status as the one-screen dashboard wpnstat shows.
func (s FleetStatus) String() string {
	var b strings.Builder
	state := "running"
	if s.Done {
		state = "done"
	}
	fmt.Fprintf(&b, "fleet %-7s  %s  shards %d/%d live  sim %s / end %s\n",
		s.Device, state, s.LiveShards, s.Shards,
		s.SimTime.Format("2006-01-02 15:04"), s.WindowEnd.Format("2006-01-02 15:04"))
	fmt.Fprintf(&b, "heartbeats %-6d kills %-4d restarts %-4d lost %-3d stolen %-4d records %-6d events %d\n",
		s.Heartbeats, s.Kills, s.Restarts, s.Lost, s.Stolen, s.Records, s.Events)
	fmt.Fprintf(&b, "%-6s %-6s %-5s %-6s %-5s %-9s %-8s %-4s %s\n",
		"shard", "state", "ctrs", "queued", "coll", "restarts", "adopted", "lag", "breakers")
	for _, w := range s.Workers {
		state := "live"
		if w.Lost {
			state = "lost"
		} else if !w.Alive {
			state = "down"
		}
		brk := ""
		for _, st := range []string{"closed", "half-open", "open"} {
			if n := w.Breakers[st]; n > 0 {
				if brk != "" {
					brk += " "
				}
				brk += fmt.Sprintf("%s:%d", st, n)
			}
		}
		fmt.Fprintf(&b, "%-6d %-6s %-5d %-6d %-5d %d/%-7d %-8d %-4d %s\n",
			w.Shard, state, w.Containers, w.Queued, w.Collected,
			w.Restarts, w.Restarts+w.RestartBudget, w.Adopted, w.MergeLagCycles, brk)
	}
	return b.String()
}

// Run crawls the seed URLs with a fleet of cfg.Shards workers and
// returns the merged result plus the control plane's report.
// Cancelling ctx stops the crawl at the next tick boundary (no final
// drain) and returns the records collected so far with ctx.Err(); they
// are a prefix of an uninterrupted run's records, so a killed crawl is
// simply run again.
func Run(ctx context.Context, cfg Config, seeds []string) (*crawler.Result, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 6 * time.Hour
	}
	switch {
	case cfg.MaxRestarts == 0:
		cfg.MaxRestarts = 2
	case cfg.MaxRestarts < 0:
		cfg.MaxRestarts = 0
	}
	crawlCfg := cfg.Crawl.WithDefaults()
	if crawlCfg.Clock == nil || crawlCfg.NewClient == nil || crawlCfg.Driver == nil {
		return nil, nil, fmt.Errorf("fleet: Crawl.Clock, Crawl.NewClient and Crawl.Driver are required")
	}

	// Shard durability: required the moment workers can die. A crash
	// plan with no Dir gets a private temp directory.
	durable := cfg.WorkerCrashPlan != nil || cfg.Dir != ""
	dir := cfg.Dir
	if durable && dir == "" {
		d, err := os.MkdirTemp("", "wpnfleet-")
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: state dir: %w", err)
		}
		defer os.RemoveAll(d)
		dir = d
	} else if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("fleet: state dir: %w", err)
		}
	}

	// Round-robin shard assignment over the global seed list. Seeds
	// carry their global indices, so container ids (index+1), and with
	// them the merge order, are independent of the shard count.
	seedsByShard := make([][]crawler.ShardSeed, cfg.Shards)
	for i, u := range seeds {
		k := i % cfg.Shards
		seedsByShard[k] = append(seedsByShard[k], crawler.ShardSeed{Index: i, URL: u})
	}
	names := make([]string, cfg.Shards)
	for k := range names {
		// The crash-plan identity: stable per (shard, device), distinct
		// from container clientIDs so worker draws and container draws
		// never collide.
		names[k] = fmt.Sprintf("shard-%d#%s", k, crawlCfg.Device)
	}

	met := newFleetMetrics(crawlCfg.Metrics)
	tr, err := newLocalTransport(ctx, crawlCfg, names, seedsByShard, dir, durable, cfg.WorkerCrashPlan, met)
	if err != nil {
		return nil, nil, err
	}

	co := newCoordinator(ctx, cfg, crawlCfg, tr, met)
	runErr := co.run(seeds)

	co.report.StateSaves = tr.StateSaves()
	for k := range co.report.Workers {
		co.report.Workers[k].Containers = co.owned[k]
	}
	if runErr == nil {
		runErr = ctx.Err()
	}
	return co.res, co.report, runErr
}
