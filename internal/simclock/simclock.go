// Package simclock provides a virtual clock for deterministic simulation.
//
// The crawler in this repository reproduces timing behaviour from the paper
// (a 5-minute wait for permission prompts, a 15-minute window for the first
// notification, periodic container resumes over a two-month collection
// window). Running that in real time is impossible in tests, so all
// time-dependent components accept a Clock. A Simulated clock advances only
// when told to, firing timers in order; a Real clock delegates to package
// time for production-style use.
package simclock

import (
	"container/heap"
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for simulation. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// After returns a channel that receives the then-current time once d
	// has elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks until d has elapsed.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the system clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// NoWait is a Clock whose waits return at once: Now reads the wrapped
// Clock, Sleep returns immediately, and After's channel already holds
// the wrapped Clock's Now. It drives the backoff of clients that retry
// against simulated services.
//
// It is exact because the simulation's driver (internal/fleet's
// coordinator) advances the simulated clock only between pump phases,
// never while a phase's requests are in flight. A retry that slept
// would therefore wake at the same simulated instant as one that did
// not, and every fault draw is keyed by attempt number or by simulated
// time, so the sleep could change no outcome; it would only spend
// wall time.
type NoWait struct {
	Clock Clock
}

// Now implements Clock.
func (c NoWait) Now() time.Time { return c.Clock.Now() }

// After implements Clock.
func (c NoWait) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- c.Clock.Now()
	return ch
}

// Sleep implements Clock.
func (NoWait) Sleep(time.Duration) {}

// Simulated is a virtual Clock. Time never advances on its own; call
// Advance (or Run) to move it forward. Timers created with After fire, in
// timestamp order, as the clock passes their deadlines. The zero value is
// not ready to use; call NewSimulated.
type Simulated struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
	seq    int64
}

// NewSimulated returns a Simulated clock starting at the given instant.
func NewSimulated(start time.Time) *Simulated {
	return &Simulated{now: start}
}

type simTimer struct {
	at  time.Time
	seq int64 // tiebreaker: FIFO for equal deadlines
	ch  chan time.Time
}

type timerHeap []*simTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x interface{}) { *h = append(*h, x.(*simTimer)) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Now implements Clock.
func (s *Simulated) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// After implements Clock. The returned channel has capacity 1, so the
// timer fires even if nobody is receiving at that moment.
func (s *Simulated) After(d time.Duration) <-chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- s.now
		return ch
	}
	s.seq++
	heap.Push(&s.timers, &simTimer{at: s.now.Add(d), seq: s.seq, ch: ch})
	return ch
}

// Sleep blocks until the clock has been advanced past d. It must not be
// called from the same goroutine that calls Advance, or both will block.
func (s *Simulated) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-s.After(d)
}

// Advance moves the clock forward by d, firing every timer whose deadline
// is reached, in order. It returns the number of timers fired.
func (s *Simulated) Advance(d time.Duration) int {
	s.mu.Lock()
	target := s.now.Add(d)
	fired := 0
	for len(s.timers) > 0 && !s.timers[0].at.After(target) {
		t := heap.Pop(&s.timers).(*simTimer)
		s.now = t.at
		t.ch <- s.now
		fired++
	}
	s.now = target
	s.mu.Unlock()
	return fired
}

// AdvanceToNext advances the clock to the next pending timer's deadline and
// fires it (and any timers sharing that deadline). It reports whether a
// timer was pending.
func (s *Simulated) AdvanceToNext() bool {
	s.mu.Lock()
	if len(s.timers) == 0 {
		s.mu.Unlock()
		return false
	}
	at := s.timers[0].at
	s.mu.Unlock()
	s.Advance(at.Sub(s.Now()))
	return true
}

// PendingTimers returns the deadlines of all outstanding timers, sorted.
func (s *Simulated) PendingTimers() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]time.Time, len(s.timers))
	for i, t := range s.timers {
		out[i] = t.at
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}
