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

// Event is one line of a run's event ledger: what the crawl control
// plane or the mining pipeline decided, in the order it decided it.
// Seq counts from 0 in append order. Time is the simulated clock for
// crawl events and zero (omitted from the JSONL form) for mining
// events, which are ordered but untimed. Attrs values are
// pre-formatted strings, and encoding/json writes map keys sorted, so
// identical event sequences serialize to identical bytes.
type Event struct {
	Seq   int               `json:"seq"`
	Time  time.Time         `json:"time"`
	Kind  string            `json:"kind"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// MarshalJSON writes the event's JSONL form, omitting a zero Time.
func (e Event) MarshalJSON() ([]byte, error) {
	type wire struct {
		Seq   int               `json:"seq"`
		Time  *time.Time        `json:"time,omitempty"`
		Kind  string            `json:"kind"`
		Attrs map[string]string `json:"attrs,omitempty"`
	}
	w := wire{Seq: e.Seq, Kind: e.Kind, Attrs: e.Attrs}
	if !e.Time.IsZero() {
		w.Time = &e.Time
	}
	return json.Marshal(w)
}

// Ledger accumulates one run's events in memory. Appends come from
// serial code paths (the fleet coordinator's loop, mining stage
// boundaries and canonical-order flushes), so Seq is causal order; the
// mutex only keeps a stray concurrent append safe. A nil *Ledger
// ignores appends, the same contract as nil telemetry.
type Ledger struct {
	mu     sync.Mutex
	events []Event
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Append records ev under the next seq (any Seq it carries is
// overwritten).
func (l *Ledger) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Events returns a copy of the events appended so far.
func (l *Ledger) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// WriteFile writes the ledger's JSONL atomically: readers see the old
// file or the complete new one, never a partial ledger.
func (l *Ledger) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := WriteLedger(&buf, l.Events()); err != nil {
		return err
	}
	return writeFileAtomic(path, buf.Bytes())
}

// WriteLedger writes events as JSONL, one event per line.
func WriteLedger(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("telemetry: write ledger: %w", err)
		}
	}
	return bw.Flush()
}

// ReadLedger parses ledger JSONL, skipping blank lines. It rejects any
// line that is not a JSON event object with a non-empty kind, and any
// seq that does not continue the contiguous 0, 1, 2, ... sequence, so
// a gap, a duplicate, a reordering or a torn final line fails the read
// instead of yielding a plausible prefix.
func ReadLedger(r io.Reader) ([]Event, error) {
	var out []Event
	err := readJSONL(r, "ledger", func(line []byte) error {
		var ev *Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		switch {
		case ev == nil:
			return errors.New("null event")
		case ev.Kind == "":
			return errors.New("empty kind")
		case ev.Seq != len(out):
			return fmt.Errorf("seq %d, want %d", ev.Seq, len(out))
		}
		if len(ev.Attrs) == 0 {
			ev.Attrs = nil // "attrs":{} and no attrs are the same event
		}
		out = append(out, *ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readJSONL hands each non-blank line of r to decode, in order. An
// error from decode or from reading ends the read, prefixed with what
// is read and the line number.
func readJSONL(r io.Reader, what string, decode func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := decode(sc.Bytes()); err != nil {
			return fmt.Errorf("telemetry: %s line %d: %w", what, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("telemetry: read %s: %w", what, err)
	}
	return nil
}
