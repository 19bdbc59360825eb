package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanID identifies a span within one Tracer. 0 is "no span" (roots and
// the nil tracer's return value).
type SpanID int64

// Span is one traced operation: a named interval with a parent link and
// string attributes. Point events (a notification shown, a redirect
// hop) are spans with Start == End. The JSONL form is the trace export
// format; spans carrying browser-event names are the crawl's one record
// of browser events, from which Chains rebuilds the attack chains.
type Span struct {
	ID        SpanID            `json:"id"`
	Parent    SpanID            `json:"parent,omitempty"`
	Container string            `json:"container,omitempty"`
	Name      string            `json:"name"`
	Start     time.Time         `json:"start"`
	End       time.Time         `json:"end"`
	Attrs     map[string]string `json:"attrs,omitempty"`

	// Seg is the coordinator-minted global phase sequence number the
	// span was emitted under (fleet crawls only; 0 otherwise). It
	// exists so spans from per-shard tracers can be stitched back into
	// one coordinator-ordered trace (StitchSpans), and is deliberately
	// excluded from the JSONL export: a stitched fleet trace must be
	// byte-identical at shards=1 to the lone worker's own trace.
	Seg int64 `json:"-"`
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer collects parent-linked spans. It is safe for concurrent use —
// crawler containers trace in parallel — and nil-safe: a nil Tracer
// returns SpanID 0 from every start call and ignores everything else.
//
// Span IDs are assigned in emission order, so sorting spans by ID
// recovers the exact event order regardless of goroutine interleaving
// within one container (cross-container order follows the lock order,
// which the deterministic crawl makes reproducible).
type Tracer struct {
	now func() time.Time

	mu    sync.Mutex
	spans []Span
	seg   int64 // current segment stamped onto new spans (fleet crawls)
}

// NewTracer creates a Tracer. now supplies span timestamps for the
// duration-style API (mining stages); nil means time.Now. Chain spans
// driven by browser events carry the event's simulated-clock time
// explicitly via the At variants.
func NewTracer(now func() time.Time) *Tracer {
	if now == nil {
		now = time.Now
	}
	return &Tracer{now: now}
}

// Start opens a span at the tracer's current time.
func (t *Tracer) Start(container, name string, parent SpanID, attrs map[string]string) SpanID {
	if t == nil {
		return 0
	}
	return t.StartAt(container, name, parent, attrs, t.now())
}

// StartAt opens a span at an explicit time (the simulated clock, for
// crawl chains).
func (t *Tracer) StartAt(container, name string, parent SpanID, attrs map[string]string, at time.Time) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Container: container, Name: name,
		Start: at, End: at, Attrs: attrs, Seg: t.seg,
	})
	return id
}

// SetSegment sets the segment number stamped onto spans emitted from
// now on. The fleet coordinator mints one global segment per transport
// phase (seed, poll, dispatch, click, finish) and sets it on each
// shard's tracer before invoking the phase, so per-shard span streams
// carry enough ordering information to be stitched back into the
// single coordinator-rooted trace. Nil-safe no-op.
func (t *Tracer) SetSegment(seg int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seg = seg
	t.mu.Unlock()
}

// End closes a span at the tracer's current time. Unknown or zero IDs
// are ignored.
func (t *Tracer) End(id SpanID) {
	if t == nil {
		return
	}
	t.EndAt(id, t.now())
}

// EndAt closes a span at an explicit time.
func (t *Tracer) EndAt(id SpanID, at time.Time) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) {
		t.spans[id-1].End = at
	}
}

// Point emits an instantaneous span at an explicit time.
func (t *Tracer) Point(container, name string, parent SpanID, attrs map[string]string, at time.Time) SpanID {
	return t.StartAt(container, name, parent, attrs, at)
}

// SetAttr sets one attribute on an open (or closed) span.
func (t *Tracer) SetAttr(id SpanID, key, value string) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) {
		sp := &t.spans[id-1]
		if sp.Attrs == nil {
			sp.Attrs = make(map[string]string, 1)
		}
		sp.Attrs[key] = value
	}
}

// Spans returns a snapshot of all spans in emission (ID) order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len reports how many spans have been emitted.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteJSONL streams every span as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range t.Spans() {
		if err := enc.Encode(&sp); err != nil {
			return fmt.Errorf("telemetry: write span: %w", err)
		}
	}
	return bw.Flush()
}

// WriteTraceFile writes the trace JSONL atomically: readers see the old
// file or the complete new one, never a partial trace.
func (t *Tracer) WriteTraceFile(path string) error {
	var buf bytes.Buffer
	if err := t.WriteJSONL(&buf); err != nil {
		return err
	}
	return writeFileAtomic(path, buf.Bytes())
}

// StitchSpans reassembles per-shard span streams into one
// coordinator-ordered trace. Streams are per-tracer span slices in
// shard order (each internally consistent: IDs ascending, parents
// referencing earlier spans of the same stream). Spans are interleaved
// by (segment, shard, local ID) — the order the coordinator drove the
// phases in — then renumbered from 1 with parents remapped per stream.
// At shards=1 the stitch is the identity: segments ascend with local
// IDs, so the output equals the input stream renumbered onto itself,
// which is what makes a stitched one-shard fleet trace byte-identical
// to the lone worker's own trace.
//
// The returned spans carry Seg 0 and are self-consistent, ready for
// Tracer.Append or WriteJSONL.
func StitchSpans(streams [][]Span) []Span {
	total := 0
	for _, st := range streams {
		total += len(st)
	}
	if total == 0 {
		return nil
	}
	type ref struct {
		stream int
		span   Span
	}
	refs := make([]ref, 0, total)
	for si, st := range streams {
		for _, sp := range st {
			refs = append(refs, ref{stream: si, span: sp})
		}
	}
	sort.SliceStable(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if a.span.Seg != b.span.Seg {
			return a.span.Seg < b.span.Seg
		}
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		return a.span.ID < b.span.ID
	})
	// Parents always precede children within a stream (lower local ID,
	// emitted under the same or an earlier segment), so a single forward
	// pass sees every parent before its children.
	remap := make([]map[SpanID]SpanID, len(streams))
	for i := range remap {
		remap[i] = make(map[SpanID]SpanID)
	}
	out := make([]Span, 0, total)
	for i, r := range refs {
		sp := r.span
		newID := SpanID(i + 1)
		remap[r.stream][sp.ID] = newID
		sp.ID = newID
		if sp.Parent > 0 {
			// A parent missing from the map (e.g. chain state carried
			// across shards) degrades to a root rather than pointing at
			// an unrelated span.
			sp.Parent = remap[r.stream][sp.Parent]
		}
		sp.Seg = 0
		out = append(out, sp)
	}
	return out
}

// Append splices an already-stitched, self-consistent span slice onto
// the tracer, re-basing IDs and parent links past the spans already
// recorded. The fleet coordinator uses it to land each device crawl's
// stitched trace on the study's shared tracer exactly where a worker
// tracing straight into it would have emitted it. Nil-safe no-op.
func (t *Tracer) Append(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := SpanID(len(t.spans))
	for _, sp := range spans {
		sp.ID += base
		if sp.Parent > 0 {
			sp.Parent += base
		}
		sp.Seg = t.seg
		t.spans = append(t.spans, sp)
	}
}

// ReadSpans parses trace JSONL, skipping blank lines, as strictly as
// ReadLedger: it rejects any line that is not a JSON span object with a
// non-empty name, any id that does not continue the contiguous 1, 2,
// 3, ... sequence, and any parent that is not an earlier id. Every
// writer satisfies this: Tracer IDs are emission order, StitchSpans
// renumbers parents before their children, and Append rebases both.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	err := readJSONL(r, "trace", func(line []byte) error {
		var sp *Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return err
		}
		switch {
		case sp == nil:
			return errors.New("null span")
		case sp.Name == "":
			return errors.New("empty name")
		case sp.ID != SpanID(len(out)+1):
			return fmt.Errorf("id %d, want %d", sp.ID, len(out)+1)
		case sp.Parent < 0 || sp.Parent >= sp.ID:
			return fmt.Errorf("parent %d is not an earlier id", sp.Parent)
		}
		if len(sp.Attrs) == 0 {
			sp.Attrs = nil // "attrs":{} and no attrs are the same span
		}
		out = append(out, *sp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
