package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
}

// Duration is the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer collects parent-linked spans. It is safe for concurrent use —
// crawler containers trace in parallel — and nil-safe: a nil Tracer
// returns SpanID 0 from every start call and ignores everything else.
//
// Span IDs are assigned in emission order, so sorting spans by ID
// recovers the exact event order within one container, whatever the
// goroutine interleaving. Across containers the order is the lock order
// of concurrent emitters: it repeats run to run only when one container
// emits at a time.
type Tracer struct {
	now func() time.Time

	mu    sync.Mutex
	spans []Span
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
		Start: at, End: at, Attrs: attrs,
	})
	return id
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

// ReadSpans parses trace JSONL, skipping blank lines, as strictly as
// ReadLedger: it rejects any line that is not a JSON span object with a
// non-empty name, any id that does not continue the contiguous 1, 2,
// 3, ... sequence, and any parent that is not an earlier id. The
// Tracer satisfies this: IDs are emission order, and a parent is always
// emitted before its children.
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
