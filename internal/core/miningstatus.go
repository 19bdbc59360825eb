package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"pushadminer/internal/telemetry"
)

// MiningStatus is the live introspection snapshot served at /miningz:
// the mining pipeline's mirror of the fleet's FleetStatus. It is
// rebuilt (as a fresh immutable value) at every stage boundary and at
// throttled intervals inside the block-clustering and cut-sweep
// fan-outs, published through a telemetry.Publisher, and rendered as
// JSON or (via String) a terminal dashboard by cmd/wpnstat.
type MiningStatus struct {
	// Stage is the pipeline stage currently running ("featurize",
	// "blocks", "cut", ...; "done" after the run finishes).
	Stage string `json:"stage"`
	// Mode names the clustering path: cached (exact) or blocked.
	Mode string `json:"mode"`
	// Records is the corpus size entering clustering: the records left
	// after the valid-landing filter.
	Records int `json:"records"`

	// BlocksTotal/BlocksDone track per-block exact clustering on the
	// blocked path (0/0 on the matrix paths).
	BlocksTotal int `json:"blocks_total"`
	BlocksDone  int `json:"blocks_done"`
	// HeightsTotal/HeightsDone track the cut sweep's candidate heights
	// on either route (0/0 under a fixed cut height).
	HeightsTotal int `json:"heights_total"`
	HeightsDone  int `json:"heights_done"`

	// PairsExact/PairsPruned mirror the cluster_pairs accounting:
	// soft-cosine evaluations performed vs. skipped.
	PairsExact  int64 `json:"pairs_exact"`
	PairsPruned int64 `json:"pairs_pruned"`

	// SweepBlocksRescored / SweepMemoHits describe the cut sweep's
	// memoization: block re-cuts actually performed vs. (candidate ×
	// block) sweep-grid cells served from the per-block cut memo. A
	// sweep over one freshly built block (the exact route, or the
	// blocked route below the validation-scale crossover) re-cuts at
	// every height and never hits.
	SweepBlocksRescored int64 `json:"sweep_blocks_rescored"`
	SweepMemoHits       int64 `json:"sweep_memo_hits"`

	// Done marks the final publication of a run.
	Done bool `json:"done"`
}

// String renders the status as the one-screen dashboard wpnstat shows
// with -endpoint miningz.
func (s MiningStatus) String() string {
	var b strings.Builder
	state := "running"
	if s.Done {
		state = "done"
	}
	fmt.Fprintf(&b, "mining %-11s %-8s stage %-15s n=%d\n", s.Mode, state, s.Stage, s.Records)
	fmt.Fprintf(&b, "blocks %d/%-8d heights %d/%-8d pairs exact=%d pruned=%d\n",
		s.BlocksDone, s.BlocksTotal, s.HeightsDone, s.HeightsTotal, s.PairsExact, s.PairsPruned)
	if s.SweepBlocksRescored > 0 || s.SweepMemoHits > 0 {
		fmt.Fprintf(&b, "sweep rescored=%d memo hits=%d\n",
			s.SweepBlocksRescored, s.SweepMemoHits)
	}
	return b.String()
}

// miningProgress is one run's live-progress accumulator: lock-free
// counters the (possibly parallel) mining hot paths bump, plus the
// publisher the immutable MiningStatus snapshots go out through.
// A nil *miningProgress no-ops everywhere, so instrumented paths need
// no guards; it is created only when observation is on.
type miningProgress struct {
	mode    string
	records atomic.Int64

	stage                       atomic.Value // string
	blocksTotal, blocksDone     atomic.Int64
	heightsTotal, heightsDone   atomic.Int64
	pairsExact, pairsPruned     atomic.Int64
	sweepRescored, sweepMemoHit atomic.Int64
	pub                         *telemetry.Publisher[MiningStatus]
}

// newMiningProgress builds a progress accumulator for one run and
// registers its publisher for /miningz (the latest run wins).
func newMiningProgress(mode string, records int) *miningProgress {
	p := &miningProgress{mode: mode, pub: telemetry.NewPublisher[MiningStatus]("mining")}
	p.records.Store(int64(records))
	p.stage.Store("start")
	p.publish(false)
	return p
}

// publish rebuilds and publishes an immutable status snapshot. Fresh
// value every time: the published pointer is read concurrently by the
// debug server and must never be mutated afterwards.
func (p *miningProgress) publish(done bool) {
	if p == nil {
		return
	}
	st := &MiningStatus{
		Stage:               p.stage.Load().(string),
		Mode:                p.mode,
		Records:             int(p.records.Load()),
		BlocksTotal:         int(p.blocksTotal.Load()),
		BlocksDone:          int(p.blocksDone.Load()),
		HeightsTotal:        int(p.heightsTotal.Load()),
		HeightsDone:         int(p.heightsDone.Load()),
		PairsExact:          p.pairsExact.Load(),
		PairsPruned:         p.pairsPruned.Load(),
		SweepBlocksRescored: p.sweepRescored.Load(),
		SweepMemoHits:       p.sweepMemoHit.Load(),
		Done:                done,
	}
	if done {
		st.Stage = "done"
	}
	p.pub.Publish(st)
}

// setStage records a stage transition and republishes.
func (p *miningProgress) setStage(name string) {
	if p == nil {
		return
	}
	p.stage.Store(name)
	p.publish(false)
}

// setRecords records the corpus size entering clustering, once the
// pipeline has filtered it, and republishes.
func (p *miningProgress) setRecords(n int) {
	if p == nil {
		return
	}
	p.records.Store(int64(n))
	p.publish(false)
}

// setBlocks resets the per-block progress for a (re)clustering round.
func (p *miningProgress) setBlocks(total int) {
	if p == nil {
		return
	}
	p.blocksTotal.Store(int64(total))
	p.blocksDone.Store(0)
	p.publish(false)
}

// blockDone marks one block clustered. Publication is throttled (every
// 64 blocks, plus the final one) so a 50k-record run with thousands of
// blocks does not allocate a snapshot per block.
func (p *miningProgress) blockDone() {
	if p == nil {
		return
	}
	done := p.blocksDone.Add(1)
	if done%64 == 0 || done == p.blocksTotal.Load() {
		p.publish(false)
	}
}

// setHeights resets the cut-sweep progress for one sweep.
func (p *miningProgress) setHeights(total int) {
	if p == nil {
		return
	}
	p.heightsTotal.Store(int64(total))
	p.heightsDone.Store(0)
	p.publish(false)
}

// heightDone marks one candidate height scored (the sweep is bounded
// by maxCutCandidates, so per-height publication is cheap).
func (p *miningProgress) heightDone() {
	if p == nil {
		return
	}
	p.heightsDone.Add(1)
	p.publish(false)
}

// addPairs accumulates exact/pruned pair counts.
func (p *miningProgress) addPairs(exact, pruned int64) {
	if p == nil {
		return
	}
	p.pairsExact.Add(exact)
	p.pairsPruned.Add(pruned)
}

// sweepWork accumulates cut-sweep memoization counters (block re-cuts
// performed, memo cells served). Accumulates only; the next published
// event (heightDone, finish) carries it out.
func (p *miningProgress) sweepWork(rescored, memoHits int64) {
	if p == nil {
		return
	}
	p.sweepRescored.Add(rescored)
	p.sweepMemoHit.Add(memoHits)
}

// finish publishes the terminal snapshot.
func (p *miningProgress) finish() { p.publish(true) }

// clusterMode names the path ClusterWPNs will take for opts, for the
// status Mode field and progress logging.
func clusterMode(opts ClusterOptions) string {
	if opts.Blocked {
		return "blocked"
	}
	return "cached"
}
