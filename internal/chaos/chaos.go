// Package chaos is the deterministic fault-injection layer for the
// simulated web. It wraps vnet host handlers and client transports
// with seeded, composable fault profiles — latency spikes, connection
// resets, 5xx bursts, truncated bodies, DNS blackhole windows, and
// scheduled push-service outages driven by the simulated clock — so the
// crawler's robustness machinery (retries, circuit breakers, container
// crash recovery) can be exercised and *measured* under the
// failure modes a real two-month crawl survives (§6.1 of the paper).
//
// Every fault decision is a pure function of (seed, client, host,
// method, path class, attempt number) or, for windowed faults, of the
// simulated time alone. Two runs with the same seed therefore inject
// byte-identical fault sequences regardless of goroutine scheduling,
// which is what makes record-loss bounds assertable in tests.
package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"
	"sync"
	"time"

	"pushadminer/internal/telemetry"
)

// ClientHeader carries the stable browser/container identity on every
// request, letting the injector key fault draws on *who* is asking
// rather than on nondeterministic artifacts like token mint order.
const ClientHeader = "X-Sim-Client"

// InjectedHeader marks responses the injector fabricated (injected 503s
// and outage 503s) with the fault kind, so client-side observers can
// count injected faults 1:1 and reconcile them against retry counters.
// It is always set — fault injection is deterministic, so runs with and
// without telemetry see byte-identical responses.
const InjectedHeader = "X-Chaos"

// Window is a time interval expressed as an offset from the simulation
// epoch, so profiles stay seed-portable.
type Window struct {
	Start time.Duration `json:"start"`
	Dur   time.Duration `json:"dur"`
}

func (w Window) contains(elapsed time.Duration) bool {
	return elapsed >= w.Start && elapsed < w.Start+w.Dur
}

// Profile is a composable fault configuration. Fractions are per-request
// probabilities in [0, 1]; zero disables that fault class.
type Profile struct {
	// Seed drives all fault draws. 0 means "inherit" (the ecosystem
	// substitutes its own seed).
	Seed int64 `json:"seed"`

	// LatencyFraction of requests are delayed by a deterministic value
	// in [LatencyMin, LatencyMax] (real time; the simulated clock does
	// not advance).
	LatencyFraction float64       `json:"latency_fraction,omitempty"`
	LatencyMin      time.Duration `json:"latency_min,omitempty"`
	LatencyMax      time.Duration `json:"latency_max,omitempty"`

	// ResetFraction of requests are aborted before any response byte
	// (panic(http.ErrAbortHandler)): each fails once with a transport
	// error, which nothing retries below the caller.
	ResetFraction float64 `json:"reset_fraction,omitempty"`

	// Error5xxFraction of requests are answered 503 before reaching the
	// real handler (no server-side effects happen).
	Error5xxFraction float64 `json:"error_5xx_fraction,omitempty"`

	// RetryAfter, when nonzero, is advertised on injected 503s.
	RetryAfter time.Duration `json:"retry_after,omitempty"`

	// TruncateFraction of GET responses are cut mid-body (the declared
	// Content-Length exceeds the bytes sent). Only GETs: truncating a
	// POST's response would hide a side effect that already happened.
	TruncateFraction float64 `json:"truncate_fraction,omitempty"`

	// ContainerCrashFraction is consulted by the crawler's CrashPlan:
	// the probability a given container crashes on a given resume cycle.
	ContainerCrashFraction float64 `json:"container_crash_fraction,omitempty"`

	// Blackholes maps hostnames to windows during which the host is
	// unresolvable (transport-level "no such host" errors).
	Blackholes map[string][]Window `json:"blackholes,omitempty"`

	// PushOutages are windows during which the push service answers 503
	// to everything — the scheduled push-service outage scenario.
	PushOutages []Window `json:"push_outages,omitempty"`
	// PushHost is the host the outage windows apply to.
	PushHost string `json:"push_host,omitempty"`

	// Only, when non-empty, restricts per-request fault injection to
	// these hosts (windowed faults always apply to their own hosts).
	Only []string `json:"only,omitempty"`
}

// Enabled reports whether the profile injects anything at all.
func (p Profile) Enabled() bool {
	return p.LatencyFraction > 0 || p.ResetFraction > 0 || p.Error5xxFraction > 0 ||
		p.TruncateFraction > 0 || p.ContainerCrashFraction > 0 ||
		len(p.Blackholes) > 0 || len(p.PushOutages) > 0
}

func (p Profile) withDefaults() Profile {
	if p.LatencyMin <= 0 {
		p.LatencyMin = 2 * time.Millisecond
	}
	if p.LatencyMax < p.LatencyMin {
		p.LatencyMax = p.LatencyMin + 20*time.Millisecond
	}
	return p
}

// Injector applies a Profile. It is safe for concurrent use; all state
// mutations commute, so totals stay deterministic under parallelism.
type Injector struct {
	prof  Profile
	now   func() time.Time
	start time.Time

	mu       sync.Mutex
	attempts map[string]int
	// stats counts injected faults by kind. It is a telemetry family so
	// the injector's own report (Stats) and registry snapshots read the
	// same counters — there is no second bookkeeping path to drift.
	stats *telemetry.Family
}

// NewInjector builds an injector. now reports the current simulated
// time and start is the simulation epoch (windows are offsets from it).
func NewInjector(p Profile, now func() time.Time, start time.Time) *Injector {
	return &Injector{
		prof:     p.withDefaults(),
		now:      now,
		start:    start,
		attempts: make(map[string]int),
		stats:    telemetry.NewFamily("chaos_faults", "kind"),
	}
}

// Profile returns the injector's (defaulted) profile.
func (in *Injector) Profile() Profile { return in.prof }

// Stats returns a snapshot of fault counters by kind.
func (in *Injector) Stats() map[string]int {
	counts := in.stats.Counts()
	out := make(map[string]int, len(counts))
	for k, v := range counts {
		out[k] = int(v)
	}
	return out
}

// Faults returns the injected-fault counter family ("chaos_faults",
// labeled by kind) backing Stats.
func (in *Injector) Faults() *telemetry.Family { return in.stats }

// AttachMetrics folds the injected-fault family into a registry so
// snapshots carry chaos totals. Nil-safe on both sides.
func (in *Injector) AttachMetrics(reg *telemetry.Registry) {
	if in == nil {
		return
	}
	reg.Adopt(in.stats)
}

func (in *Injector) count(kind string) {
	in.stats.Add(kind, 1)
}

// key identifies a request class for fault draws: who, where, what.
// The full path participates, so /send/tok-a and /send/tok-b keep
// separate attempt counters: push tokens are minted from registration
// identity (browser instance, origin, script — see fcm.Register), never
// from arrival order, so per-token draw sequences stay deterministic
// even when deliveries to different tokens are flushed concurrently.
func requestKey(r *http.Request, host string) string {
	client := r.Header.Get(ClientHeader)
	return client + "|" + host + "|" + r.Method + "|" + r.URL.Path
}

// nextAttempt increments and returns the per-key attempt counter.
func (in *Injector) nextAttempt(key string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.attempts[key]++
	return in.attempts[key]
}

// draw is one deterministic Bernoulli trial.
func (in *Injector) draw(kind, key string, attempt int, frac float64) bool {
	if frac <= 0 {
		return false
	}
	return hashFrac(in.prof.Seed, fmt.Sprintf("%s|%s|%d", kind, key, attempt)) < frac
}

// hashFrac maps a key to a deterministic uniform value in [0, 1).
// FNV-1a barely avalanches its final input bytes — a trailing attempt
// counter would shift only the low bits, making retries draw the same
// fault as the first try — so the sum is run through a 64-bit mix
// finalizer before the top 53 bits are taken.
func hashFrac(seed int64, key string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, key)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

func (in *Injector) applies(host string) bool {
	if len(in.prof.Only) == 0 {
		return true
	}
	for _, h := range in.prof.Only {
		if strings.EqualFold(h, host) {
			return true
		}
	}
	return false
}

// inOutage reports whether host is inside a scheduled push outage.
func (in *Injector) inOutage(host string) bool {
	if host != in.prof.PushHost || len(in.prof.PushOutages) == 0 {
		return false
	}
	elapsed := in.now().Sub(in.start)
	for _, w := range in.prof.PushOutages {
		if w.contains(elapsed) {
			return true
		}
	}
	return false
}

// blackholed reports whether host is inside a blackhole window.
func (in *Injector) blackholed(host string) bool {
	ws := in.prof.Blackholes[host]
	if len(ws) == 0 {
		return false
	}
	elapsed := in.now().Sub(in.start)
	for _, w := range ws {
		if w.contains(elapsed) {
			return true
		}
	}
	return false
}

// ShouldCrashContainer decides whether the container identified by
// clientID crashes on its cycle-th resume. Used via crawler.Config
// CrashPlan.
func (in *Injector) ShouldCrashContainer(clientID string, cycle int) bool {
	if in.prof.ContainerCrashFraction <= 0 {
		return false
	}
	if hashFrac(in.prof.Seed, fmt.Sprintf("crash|%s|%d", clientID, cycle)) < in.prof.ContainerCrashFraction {
		in.count("container_crash")
		return true
	}
	return false
}

// Middleware wraps a vnet host handler with fault injection. Faults
// that fail the request (reset, 503, outage) fire BEFORE the inner
// handler runs, so a failed request never has hidden server-side
// effects — retrying it is always safe.
func (in *Injector) Middleware(host string, h http.Handler) http.Handler {
	if !in.applies(host) && host != in.prof.PushHost {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.inOutage(host) {
			in.count("outage_503")
			w.Header().Set("Retry-After", "3600")
			w.Header().Set(InjectedHeader, "outage_503")
			http.Error(w, "chaos: push service outage", http.StatusServiceUnavailable)
			return
		}
		if !in.applies(host) {
			h.ServeHTTP(w, r)
			return
		}
		key := requestKey(r, host)
		n := in.nextAttempt(key)
		if in.draw("reset", key, n, in.prof.ResetFraction) {
			in.count("reset")
			panic(http.ErrAbortHandler)
		}
		if in.draw("503", key, n, in.prof.Error5xxFraction) {
			in.count("http_503")
			w.Header().Set(InjectedHeader, "http_503")
			if in.prof.RetryAfter > 0 {
				secs := int(in.prof.RetryAfter / time.Second)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", fmt.Sprint(secs))
			}
			http.Error(w, "chaos: injected 503", http.StatusServiceUnavailable)
			return
		}
		if in.draw("latency", key, n, in.prof.LatencyFraction) {
			in.count("latency")
			time.Sleep(in.latencyFor(key, n))
		}
		if r.Method == http.MethodGet && in.draw("trunc", key, n, in.prof.TruncateFraction) {
			in.count("truncate")
			serveTruncated(w, r, h)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// latencyFor picks a deterministic delay in [LatencyMin, LatencyMax].
func (in *Injector) latencyFor(key string, attempt int) time.Duration {
	span := in.prof.LatencyMax - in.prof.LatencyMin
	f := hashFrac(in.prof.Seed, fmt.Sprintf("latdur|%s|%d", key, attempt))
	return in.prof.LatencyMin + time.Duration(f*float64(span))
}

// serveTruncated runs the inner handler into a buffer, then replays the
// response with the full Content-Length but only half the body, so the
// client reads half and then io.ErrUnexpectedEOF.
func serveTruncated(w http.ResponseWriter, r *http.Request, h http.Handler) {
	rec := &captureWriter{header: make(http.Header), code: http.StatusOK}
	h.ServeHTTP(rec, r)
	body := rec.buf.Bytes()
	if len(body) < 2 {
		// Nothing meaningful to cut; pass through.
		copyHeader(w.Header(), rec.header)
		w.WriteHeader(rec.code)
		w.Write(body) //nolint:errcheck
		return
	}
	copyHeader(w.Header(), rec.header)
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.WriteHeader(rec.code)
	w.Write(body[:len(body)/2]) //nolint:errcheck
}

type captureWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
	wrote  bool
}

func (c *captureWriter) Header() http.Header { return c.header }

func (c *captureWriter) WriteHeader(code int) {
	if !c.wrote {
		c.code = code
		c.wrote = true
	}
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.wrote = true
	return c.buf.Write(b)
}

// WrapTransport adds DNS-blackhole behaviour on the client side: during
// a host's blackhole window every dial fails as if the name did not
// resolve, without the request ever reaching the virtual network.
func (in *Injector) WrapTransport(rt http.RoundTripper) http.RoundTripper {
	return &blackholeTransport{in: in, base: rt}
}

type blackholeTransport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *blackholeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := strings.ToLower(req.URL.Hostname())
	if t.in.blackholed(host) {
		t.in.count("blackhole")
		return nil, fmt.Errorf("chaos: lookup %s: no such host (blackhole window)", host)
	}
	return t.base.RoundTrip(req)
}

// taggingTransport stamps ClientHeader on every outgoing request.
type taggingTransport struct {
	id   string
	base http.RoundTripper
}

// RoundTrip sends a shallow copy of req with its own header map: the
// caller's header map must not see the stamp. URL, body and context are
// shared with the caller's request.
func (t *taggingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	out := *req
	out.Header = req.Header.Clone()
	if out.Header == nil {
		out.Header = make(http.Header)
	}
	out.Header.Set(ClientHeader, t.id)
	return t.base.RoundTrip(&out)
}

// TagClient wraps the client's transport so every request carries the
// given stable client identity, and returns the same client.
func TagClient(c *http.Client, id string) *http.Client {
	base := c.Transport
	if base == nil {
		base = http.DefaultTransport
	}
	c.Transport = &taggingTransport{id: id, base: base}
	return c
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}
