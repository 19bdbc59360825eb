// Package telemetry is the measurement system's own measurement system:
// a lock-cheap metrics registry (atomic counters, gauges, fixed-bucket
// histograms, and labeled counter families), span-style tracing for WPN
// attack chains and mining stages, and runtime profiling hooks (expvar
// publication plus an optional pprof debug listener).
//
// The paper's headline numbers — WPN volumes per ad network, click-chain
// lengths, cluster counts, fraction malicious — are computed by the
// crawler and the mining pipeline; this package makes them *watchable*
// while they are computed, and auditable afterwards: snapshots are
// deterministic JSON, and traces are JSONL from which Chains rebuilds
// every WPN attack chain.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments, and
// every method on a nil instrument is a no-op. Instrumented code can
// therefore thread telemetry unconditionally; the disabled path costs
// one nil check, no allocations, no locks.
package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter ignores all operations.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value. A nil Gauge
// ignores all operations.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the gauge value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Fixed bucket layouts for the quantities this system distributes over.
// Bounds are inclusive upper edges; observations above the last bound
// land in the implicit +Inf bucket.
var (
	// LatencyBuckets covers request/pump latencies, in seconds.
	LatencyBuckets = []float64{
		0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
	}
	// HopBuckets covers redirect-chain lengths (the paper's click
	// chains run up to ~10 hops before the landing page).
	HopBuckets = []float64{1, 2, 3, 4, 5, 6, 8, 10, 15}
	// SizeBuckets covers cluster sizes (most clusters are small; ad
	// campaigns reach hundreds of members).
	SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	// NanosBuckets covers per-unit-of-work wall times in nanoseconds
	// (mining_block_ns: sub-µs singleton blocks through multi-second
	// giant blocks), decade-spaced.
	NanosBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}
)

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// A nil Histogram ignores all operations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over the given ascending bucket
// bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramSnapshot is a histogram's JSON form: parallel bound/count
// slices plus the +Inf overflow count.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per bound, then +Inf appended
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Bounds: h.bounds, Count: h.count.Load(), Sum: math.Float64frombits(h.sum.Load())}
	s.Counts = make([]int64, len(h.counts))
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Family is a named set of counters keyed by one label's values — the
// registry's labeled-counter form (request counts by vhost, faults by
// kind, breaker transitions by edge). It can live standalone (vnet and
// chaos own theirs) and be adopted into a Registry for snapshotting.
// A nil Family hands out nil counters and empty snapshots.
type Family struct {
	name, label string

	mu sync.RWMutex
	m  map[string]*Counter
}

// NewFamily creates a standalone counter family.
func NewFamily(name, label string) *Family {
	return &Family{name: name, label: label, m: make(map[string]*Counter)}
}

// Name returns the family's registered name ("" for nil).
func (f *Family) Name() string {
	if f == nil {
		return ""
	}
	return f.name
}

// With returns the counter for one label value, creating it on first
// use. Returns nil on a nil family.
func (f *Family) With(value string) *Counter {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	c := f.m[value]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.m[value]; c == nil {
		c = &Counter{}
		f.m[value] = c
	}
	return c
}

// Add increments the counter for one label value — With + Add in one
// call for sites that do not cache the counter.
func (f *Family) Add(value string, n int64) { f.With(value).Add(n) }

// Counts returns a race-safe snapshot of the family as a plain map.
func (f *Family) Counts() map[string]int64 {
	if f == nil {
		return map[string]int64{}
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]int64, len(f.m))
	for k, c := range f.m {
		out[k] = c.Value()
	}
	return out
}

// Registry is the process-wide metrics registry: named instruments,
// created on first use, snapshotted as deterministic JSON. All methods
// are safe for concurrent use, and all are no-ops on a nil Registry
// (which hands out nil instruments).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	families map[string]*Family
}

// New creates an empty Registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		families: make(map[string]*Family),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing layout).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Family returns the named counter family, creating it on first use.
func (r *Registry) Family(name, label string) *Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = NewFamily(name, label)
		r.families[name] = f
	}
	return f
}

// Adopt registers an externally owned family (vnet's request counts,
// chaos's fault counts) so it appears in snapshots. Adopting under an
// already-used name replaces the previous family. No-op when either
// side is nil.
func (r *Registry) Adopt(f *Family) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families[f.name] = f
}

// Snapshot is the registry's deterministic JSON form: map keys are
// sorted by encoding/json, so two snapshots of identical metric state
// marshal to identical bytes.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Families   map[string]map[string]int64  `json:"families,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, c := range r.counters {
			s.Counters[k] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for k, g := range r.gauges {
			s.Gauges[k] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for k, h := range r.hists {
			s.Histograms[k] = h.snapshot()
		}
	}
	if len(r.families) > 0 {
		s.Families = make(map[string]map[string]int64, len(r.families))
		for k, f := range r.families {
			s.Families[k] = f.Counts()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented, key-sorted JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal snapshot: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteSnapshotFile writes the snapshot JSON to a file atomically,
// through a temp file, fsync and rename: a crash mid-write can never
// leave a truncated or half-serialized metrics file at path, only a
// stale previous one.
func (r *Registry) WriteSnapshotFile(path string) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal snapshot: %w", err)
	}
	b = append(b, '\n')
	return writeFileAtomic(path, b)
}

// writeFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so readers observe either the old contents or the
// complete new contents — never a torn write.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("telemetry: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("telemetry: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("telemetry: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("telemetry: rename %s: %w", tmp, err)
	}
	return nil
}

// published guards expvar.Publish, which panics on duplicate names
// (tests publish repeatedly).
var published sync.Map

// PublishExpvar exposes the registry's live snapshot as an expvar under
// the given name, so /debug/vars serves it alongside the runtime's
// memstats. Republishing a name rebinds it to this registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	cur := &atomicRegistry{}
	cur.r.Store(r)
	if prev, loaded := published.LoadOrStore(name, cur); loaded {
		prev.(*atomicRegistry).r.Store(r)
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} {
		v, _ := published.Load(name)
		return v.(*atomicRegistry).r.Load().(*Registry).Snapshot()
	}))
}

type atomicRegistry struct{ r atomic.Value }
