package httpx

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushadminer/internal/simclock"
)

func TestBreakerStateMachine(t *testing.T) {
	clk := simclock.NewSimulated(time.Unix(0, 0))
	b := NewBreaker(clk, BreakerConfig{Threshold: 3, Cooldown: time.Minute})
	const host = "push.example"

	if err := b.Allow(host); err != nil {
		t.Fatalf("closed circuit refused: %v", err)
	}
	b.Report(host, false)
	b.Report(host, false)
	if err := b.Allow(host); err != nil {
		t.Fatalf("under-threshold failures opened circuit: %v", err)
	}
	b.Report(host, false) // third consecutive failure: opens
	if err := b.Allow(host); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open circuit allowed a request (err=%v)", err)
	}
	if got := b.State(host); got != "open" {
		t.Fatalf("state = %q, want open", got)
	}

	clk.Advance(time.Minute)
	if err := b.Allow(host); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if got := b.State(host); got != "half-open" {
		t.Fatalf("state = %q, want half-open", got)
	}
	if err := b.Allow(host); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second request admitted while probe in flight")
	}

	b.Report(host, false) // probe failed: re-open for another cooldown
	if err := b.Allow(host); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("re-opened circuit allowed a request")
	}

	clk.Advance(time.Minute)
	if err := b.Allow(host); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Report(host, true) // probe succeeded: close
	if got := b.State(host); got != "closed" {
		t.Fatalf("state = %q, want closed", got)
	}
	if err := b.Allow(host); err != nil {
		t.Fatalf("recovered circuit refused: %v", err)
	}
}

func TestBreakerPerHostIsolation(t *testing.T) {
	b := NewBreaker(nil, BreakerConfig{Threshold: 1})
	b.Report("down.example", false)
	if err := b.Allow("down.example"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("failing host's circuit not open")
	}
	if err := b.Allow("fine.example"); err != nil {
		t.Fatalf("healthy host affected by another host's circuit: %v", err)
	}
}

func TestClientFastFailsWhileCircuitOpen(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	clk := simclock.NewSimulated(time.Unix(0, 0))
	b := NewBreaker(clk, BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	c := New(srv.Client(), nil, RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond}).WithBreaker(b)

	for i := 0; i < 2; i++ {
		resp, err := c.Get(srv.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
	}
	before := atomic.LoadInt32(&calls)
	if _, err := c.Get(srv.URL); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if atomic.LoadInt32(&calls) != before {
		t.Fatal("fast-fail still hit the server")
	}
}

// recClock records Sleep durations without sleeping, so tests can assert
// on backoff decisions.
type recClock struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (c *recClock) Now() time.Time { return time.Unix(0, 0) }
func (c *recClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}
func (c *recClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.slept = append(c.slept, d)
	c.mu.Unlock()
}

func TestRetryAfterHonored(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	clk := &recClock{}
	c := New(srv.Client(), clk, RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
		RetryAfterCap: time.Minute,
	})
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(clk.slept) != 1 || clk.slept[0] != 7*time.Second {
		t.Fatalf("slept %v, want exactly the advertised 7s", clk.slept)
	}
}

func TestRetryAfterCapped(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	clk := &recClock{}
	c := New(srv.Client(), clk, RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond,
	}) // RetryAfterCap defaults to MaxDelay
	resp, err := c.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(clk.slept) != 1 || clk.slept[0] > 10*time.Millisecond {
		t.Fatalf("slept %v, want Retry-After capped at MaxDelay", clk.slept)
	}
}

func TestParseRetryAfterHTTPDate(t *testing.T) {
	now := time.Date(2019, 9, 1, 0, 0, 0, 0, time.UTC)
	resp := &http.Response{Header: http.Header{}}
	resp.Header.Set("Retry-After", now.Add(90*time.Second).Format(http.TimeFormat))
	if d := parseRetryAfter(resp, now); d != 90*time.Second {
		t.Fatalf("parsed %v, want 90s", d)
	}
	resp.Header.Set("Retry-After", "garbage")
	if d := parseRetryAfter(resp, now); d != 0 {
		t.Fatalf("garbage header parsed to %v", d)
	}
}

// TestBreakerExportRestore pins the fleet failover contract: a restarted
// shard worker rehydrates breaker state from its shard state instead of
// starting closed, so an open circuit stays open (anchored at the saved
// OpenedAt) and half-open probing resumes on the original cooldown
// schedule.
func TestBreakerExportRestore(t *testing.T) {
	clk := simclock.NewSimulated(time.Unix(0, 0))
	b := NewBreaker(clk, BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	b.Report("down.example", false)
	b.Report("down.example", false) // opens
	b.Report("shaky.example", false)
	clk.Advance(20 * time.Second)

	states := b.Export()
	if len(states) != 2 {
		t.Fatalf("Export returned %d host states, want 2: %+v", len(states), states)
	}
	if states[0].Host != "down.example" || states[0].State != "open" {
		t.Fatalf("export[0] = %+v, want open down.example", states[0])
	}
	if states[1].Host != "shaky.example" || states[1].State != "closed" || states[1].Fails != 1 {
		t.Fatalf("export[1] = %+v, want closed shaky.example with 1 fail", states[1])
	}

	restored := NewBreaker(clk, BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	restored.Restore(states)
	if err := restored.Allow("down.example"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("restored breaker forgot the open circuit")
	}
	// One more failure must trip shaky.example: the fail count survived.
	restored.Report("shaky.example", false)
	if err := restored.Allow("shaky.example"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("restored fail count lost: shaky.example should have tripped")
	}
	// Cooldown anchors at the ORIGINAL OpenedAt: 40 more seconds (not a
	// full minute from restore) reach the half-open probe.
	clk.Advance(40 * time.Second)
	if err := restored.Allow("down.example"); err != nil {
		t.Fatalf("half-open probe refused after original cooldown elapsed: %v", err)
	}
	if got := restored.State("down.example"); got != "half-open" {
		t.Fatalf("state = %q, want half-open", got)
	}
}
