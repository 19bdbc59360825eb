package core

import (
	"runtime"
	"time"

	"pushadminer/internal/telemetry"
)

// miningStages are the pipeline stages whose wall-times are reported in
// the mining_stage_ns family. They are preresolved at timer creation so
// a snapshot always carries the full key set, even for stages that ran
// in zero time or (like blocks on the exact route) did not run. The
// silhouette scoring is part of "cut" on both routes.
var miningStages = []string{
	"filter", "featurize", "distance_matrix", "linkage",
	"blocks", "block_linkage",
	"cut", "label", "propagate", "meta",
}

// stageTimer records mining-stage wall-times into a telemetry family
// (mining_stage_ns, labeled by stage), emits one tracer span per stage
// under a shared parent, brackets each stage in the run's ledger,
// publishes stage transitions to the live progress status, and — when
// a registry is attached — accounts memory at stage boundaries
// (mining_stage_alloc_bytes per stage, mining_heap_alloc_bytes /
// mining_heap_objects gauges). A nil *stageTimer disables everything,
// so call sites need no guards.
type stageTimer struct {
	fam    *telemetry.Family
	tr     *telemetry.Tracer
	parent telemetry.SpanID
	led    *telemetry.Ledger
	prog   *miningProgress
	memFam *telemetry.Family // cumulative allocation per stage
	heapG  *telemetry.Gauge  // live heap bytes at last stage boundary
	objG   *telemetry.Gauge  // live heap objects at last stage boundary
}

// newStageTimer builds a timer whose stage spans hang off parent (0 for
// root). Returns nil when every sink (metrics, tracer, ledger,
// progress) is nil — the ledger and progress status work without
// telemetry attached, as they do for the fleet.
func newStageTimer(reg *telemetry.Registry, tr *telemetry.Tracer, parent telemetry.SpanID, led *telemetry.Ledger, prog *miningProgress) *stageTimer {
	if reg == nil && tr == nil && led == nil && prog == nil {
		return nil
	}
	st := &stageTimer{tr: tr, parent: parent, led: led, prog: prog}
	if reg != nil {
		st.fam = reg.Family("mining_stage_ns", "stage")
		st.memFam = reg.Family("mining_stage_alloc_bytes", "stage")
		for _, s := range miningStages {
			st.fam.With(s)
			st.memFam.With(s)
		}
		st.heapG = reg.Gauge("mining_heap_alloc_bytes")
		st.objG = reg.Gauge("mining_heap_objects")
	}
	return st
}

// newPipelineTimer builds a stage timer with its own "pipeline" root
// span; close() ends the root.
func newPipelineTimer(reg *telemetry.Registry, tr *telemetry.Tracer, led *telemetry.Ledger, prog *miningProgress) *stageTimer {
	st := newStageTimer(reg, tr, 0, led, prog)
	if st != nil && st.tr != nil {
		st.parent = st.tr.Start("", "pipeline", 0, nil)
	}
	return st
}

// readMem samples the runtime memory stats at a stage boundary.
// ReadMemStats stops the world, so it runs only when a registry is
// attached, and only at stage edges — never inside hot loops.
func (st *stageTimer) readMem() (totalAlloc, heapAlloc, heapObjects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.HeapAlloc, ms.HeapObjects
}

// stage starts timing one named stage and returns the function that
// stops it, recording wall-time, memory deltas, ledger brackets, and
// ending the span. Usage:
//
//	done := st.stage("linkage")
//	... work ...
//	done()
func (st *stageTimer) stage(name string) func() {
	if st == nil {
		return func() {}
	}
	ledgerStage(st.led, EvStageBegin, name)
	st.prog.setStage(name)
	var allocStart uint64
	if st.memFam != nil {
		allocStart, _, _ = st.readMem()
	}
	start := time.Now()
	var id telemetry.SpanID
	if st.tr != nil {
		id = st.tr.Start("", name, st.parent, nil)
	}
	return func() {
		if st.fam != nil {
			st.fam.Add(name, time.Since(start).Nanoseconds())
		}
		if st.memFam != nil {
			allocEnd, heap, objs := st.readMem()
			// TotalAlloc is monotone, so the delta is the stage's
			// cumulative allocation volume (includes memory already
			// freed by GC; gauges below carry the live view).
			st.memFam.Add(name, int64(allocEnd-allocStart))
			st.heapG.Set(int64(heap))
			st.objG.Set(int64(objs))
		}
		if st.tr != nil {
			st.tr.End(id)
		}
		ledgerStage(st.led, EvStageEnd, name)
	}
}

// spanID returns the parent span under which stages are emitted (0 when
// tracing is off or the timer is nil).
func (st *stageTimer) spanID() telemetry.SpanID {
	if st == nil {
		return 0
	}
	return st.parent
}

// close ends the root pipeline span, if this timer owns one.
func (st *stageTimer) close() {
	if st != nil && st.tr != nil && st.parent != 0 {
		st.tr.End(st.parent)
	}
}
