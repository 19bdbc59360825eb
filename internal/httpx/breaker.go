package httpx

import (
	"errors"
	"sort"
	"sync"
	"time"

	"pushadminer/internal/simclock"
	"pushadminer/internal/telemetry"
)

// ErrCircuitOpen is returned (wrapped) when a request is refused because
// the target host's circuit breaker is open. Callers can distinguish
// fast-fails from real transport failures with errors.Is — a fast-fail
// means "the host is known-bad right now", not "this request failed".
var ErrCircuitOpen = errors.New("httpx: circuit open")

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive request-level failures (all
	// retries exhausted, or a final retryable status) open the circuit.
	// Default 5.
	Threshold int
	// Cooldown is how long an open circuit waits before letting one
	// half-open probe through. Measured on the breaker's clock — the
	// simulated clock in crawls. Default 30 minutes.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Minute
	}
	return c
}

const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

func stateName(s int) string {
	switch s {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

type hostBreaker struct {
	state    int
	fails    int // consecutive failures while closed
	openedAt time.Time
}

// Breaker is a per-host circuit breaker with half-open probing. A host
// that keeps failing gets its circuit opened; after the cooldown a
// single probe request is admitted — success closes the circuit,
// failure re-opens it for another cooldown. All other requests fast-fail
// with ErrCircuitOpen while open, so a push-service outage costs one
// probe per cooldown instead of a full retry storm per poll.
type Breaker struct {
	clock simclock.Clock
	cfg   BreakerConfig

	mu    sync.Mutex
	hosts map[string]*hostBreaker
	// transitions, when set, counts circuit state changes by edge
	// ("closed→open", "open→half-open", ...); nil disables.
	transitions *telemetry.Family
}

// NewBreaker builds a Breaker. clock may be nil (real time).
func NewBreaker(clock simclock.Clock, cfg BreakerConfig) *Breaker {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Breaker{clock: clock, cfg: cfg.withDefaults(), hosts: make(map[string]*hostBreaker)}
}

// SetTransitions attaches (or replaces) the transition-counting family
// on an existing breaker. Nil-safe; call before traffic for complete
// counts.
func (b *Breaker) SetTransitions(f *telemetry.Family) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.transitions = f
}

// setState moves a host breaker to a new state, counting the edge.
// Callers hold b.mu.
func (b *Breaker) setState(hb *hostBreaker, to int) {
	if hb.state != to {
		b.transitions.Add(stateName(hb.state)+"→"+stateName(to), 1)
	}
	hb.state = to
}

func (b *Breaker) host(host string) *hostBreaker {
	hb := b.hosts[host]
	if hb == nil {
		hb = &hostBreaker{}
		b.hosts[host] = hb
	}
	return hb
}

// Allow reports whether a request to host may proceed. It returns
// ErrCircuitOpen while the circuit is open; when the cooldown has
// elapsed it admits exactly one half-open probe.
func (b *Breaker) Allow(host string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	hb := b.host(host)
	switch hb.state {
	case stateClosed:
		return nil
	case stateOpen:
		if b.clock.Now().Sub(hb.openedAt) >= b.cfg.Cooldown {
			b.setState(hb, stateHalfOpen) // this caller becomes the probe
			return nil
		}
		return ErrCircuitOpen
	default: // half-open: a probe is already in flight
		return ErrCircuitOpen
	}
}

// Report records the outcome of an admitted request.
func (b *Breaker) Report(host string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	hb := b.host(host)
	if ok {
		b.setState(hb, stateClosed)
		hb.fails = 0
		return
	}
	hb.fails++
	if hb.state == stateHalfOpen || hb.fails >= b.cfg.Threshold {
		b.setState(hb, stateOpen)
		hb.fails = 0
		hb.openedAt = b.clock.Now()
	}
}

// State names the circuit state for host: "closed", "open" or
// "half-open".
func (b *Breaker) State(host string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return stateName(b.host(host).state)
}

// BreakerHostState is one host's circuit state in serializable form.
// OpenedAt is meaningful only while State is "open" (it anchors the
// cooldown on the breaker's clock, the simulated clock in crawls).
type BreakerHostState struct {
	Host     string    `json:"host"`
	State    string    `json:"state"`
	Fails    int       `json:"fails,omitempty"`
	OpenedAt time.Time `json:"opened_at,omitzero"`
}

// Export snapshots every host's circuit state, sorted by host. Hosts
// still in the zero state (closed, no failures) are omitted — restoring
// onto a fresh breaker recreates them on demand.
func (b *Breaker) Export() []BreakerHostState {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []BreakerHostState
	for host, hb := range b.hosts {
		if hb.state == stateClosed && hb.fails == 0 {
			continue
		}
		out = append(out, BreakerHostState{
			Host: host, State: stateName(hb.state), Fails: hb.fails, OpenedAt: hb.openedAt,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Restore reinstates previously exported host states, so a breaker
// rebuilt after a worker restart resumes open circuits mid-cooldown
// instead of re-probing sick hosts at full rate. Restoring does not
// count state transitions — the edges were already counted when they
// happened.
func (b *Breaker) Restore(states []BreakerHostState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range states {
		if s.Host == "" {
			continue
		}
		hb := b.host(s.Host)
		switch s.State {
		case "open":
			hb.state = stateOpen
		case "half-open":
			hb.state = stateHalfOpen
		default:
			hb.state = stateClosed
		}
		hb.fails = s.Fails
		hb.openedAt = s.OpenedAt
	}
}
